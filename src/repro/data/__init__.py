"""Dataset synthesis and I/O.

The paper evaluates on eleven public datasets (Table V) plus families of
synthetic matrices with one structural parameter swept at a time (Figs.
2-4).  This package regenerates both:

- :mod:`repro.data.synthetic` — parametric sparse matrix generators
  (target ``ndig``, target ``mdim``, target ``vdim``, banded, uniform).
- :mod:`repro.data.datasets` — clones of every Table V dataset, matched
  to the published nine-parameter statistics (scaled where the original
  would not fit in test memory; scaling preserves density / balance /
  variation ratios — see DESIGN.md).
- :mod:`repro.data.cifar` — a synthetic CIFAR-10 stand-in: 10 visual
  classes of 3x32x32 images on which a small CNN reaches the paper's 0.8
  test-accuracy target quickly.
- :mod:`repro.data.libsvm_io` — reader/writer for the LIBSVM text format
  the original datasets ship in.
"""

from repro.data.synthetic import (
    attach_labels,
    banded_matrix,
    bimodal_rows_matrix,
    matrix_with_mdim,
    matrix_with_ndig,
    matrix_with_vdim,
    powerlaw_rows_matrix,
    row_lengths_for,
    uniform_rows_matrix,
    variable_rows_matrix,
)
from repro.data.datasets import (
    DATASET_SPECS,
    DatasetSpec,
    SVMDataset,
    dataset_names,
    load_dataset,
)
from repro.data.cifar import CIFAR_SHAPE, ImageDataset, synthetic_cifar10
from repro.data.libsvm_io import read_libsvm, write_libsvm

__all__ = [
    "uniform_rows_matrix",
    "variable_rows_matrix",
    "bimodal_rows_matrix",
    "powerlaw_rows_matrix",
    "banded_matrix",
    "matrix_with_ndig",
    "matrix_with_mdim",
    "matrix_with_vdim",
    "row_lengths_for",
    "attach_labels",
    "DatasetSpec",
    "SVMDataset",
    "DATASET_SPECS",
    "dataset_names",
    "load_dataset",
    "ImageDataset",
    "synthetic_cifar10",
    "CIFAR_SHAPE",
    "read_libsvm",
    "write_libsvm",
]
