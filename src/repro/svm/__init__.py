"""Support Vector Machine training via SMO (paper Algorithm 1).

Built from scratch on the format library:

- :mod:`repro.svm.kernels` — the four standard kernels of Table I
  (linear, polynomial, Gaussian, sigmoid), each computed from one SMSV.
- :mod:`repro.svm.smo` — working-set SMO with the first-order selection
  of Eqs. (3)-(6), incremental f-vector maintenance and duality-gap
  termination (``b_low <= b_high + 2 tol``).
- :mod:`repro.svm.svc` — scikit-style ``fit`` / ``predict`` /
  ``decision_function`` API, binary plus one-vs-one multiclass.
- :mod:`repro.svm.adaptive` — :class:`AdaptiveSVC`, the paper's system:
  a LayoutScheduler decides the storage format before training.
- :mod:`repro.svm.persist` — save / load trained models as one ``.npz``.
"""

from repro.svm.kernels import (
    KERNELS,
    GaussianKernel,
    Kernel,
    LinearKernel,
    PolynomialKernel,
    SigmoidKernel,
    make_kernel,
)
from repro.svm.smo import SMOResult, smo_train
from repro.svm.svc import SVC, MulticlassSVC
from repro.svm.adaptive import AdaptiveSVC

__all__ = [
    "Kernel",
    "LinearKernel",
    "PolynomialKernel",
    "GaussianKernel",
    "SigmoidKernel",
    "KERNELS",
    "make_kernel",
    "smo_train",
    "SMOResult",
    "SVC",
    "MulticlassSVC",
    "AdaptiveSVC",
]
