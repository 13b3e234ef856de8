"""Per-rule lint tests: one firing and one clean fixture per RDL code.

Fixtures are inline source strings linted under *virtual* paths, since
several rules are path-scoped (RDL001/RDL004 fire only under
``repro/formats/``, RDL005 only under ``repro/core/`` and so on).
Each positive test selects only the rule under test so an intentionally
bad fixture cannot trip a neighbouring rule and blur the assertion.
"""

import textwrap

import pytest

from repro.analysis import (
    explain_rule,
    get_rule,
    iter_rules,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.lint import Finding, suppressed_codes
from repro.analysis.rules import ALL_CODES

FORMATS = "src/repro/formats/fake.py"
DATA = "src/repro/data/fake.py"
CORE = "src/repro/core/fake.py"
NEUTRAL = "src/repro/svm/fake.py"


def lint(src, path, code):
    """Lint dedented ``src`` at ``path`` with only ``code`` enabled."""
    return lint_source(textwrap.dedent(src), path, select=[code])


def codes(findings):
    return [f.code for f in findings]


# -- engine basics -----------------------------------------------------


class TestEngine:
    def test_registry_has_all_ten_rules(self):
        # Codes 3 and 7 are retired (into RDL010 and RDL004) and never
        # renumbered, so existing noqa comments keep their meaning.
        assert ALL_CODES == tuple(
            f"RDL{i:03d}" for i in (1, 2, 4, 5, 6, 8, 9, 10, 11, 12)
        )
        assert [r.code for r in iter_rules()] == list(ALL_CODES)

    def test_every_rule_has_name_and_rationale(self):
        for rule in iter_rules():
            assert rule.name
            assert len(rule.rationale.split()) > 10

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("rdl001").code == "RDL001"

    def test_get_rule_unknown_raises_with_catalogue(self):
        # 3 and 7 are retired codes: unknown, never a different rule.
        for number in (999, 3, 7):
            with pytest.raises(ValueError, match="RDL001"):
                get_rule(f"RDL{number:03d}")

    def test_syntax_error_becomes_rdl000(self):
        findings = lint_source("def broken(:\n", "src/repro/x.py")
        assert codes(findings) == ["RDL000"]
        assert "syntax error" in findings[0].message

    def test_finding_render_format(self):
        f = Finding(path="a/b.py", line=3, col=7, code="RDL001", message="msg")
        assert f.render() == "a/b.py:3:7 RDL001 msg"
        assert f.as_dict()["line"] == 3

    def test_render_text_summary_line(self):
        assert render_text([]) == "no findings"
        f = Finding(path="x.py", line=1, col=0, code="RDL001", message="m")
        out = render_text([f, f])
        assert out.endswith("2 findings")

    def test_render_json_shape(self):
        import json

        f = Finding(path="x.py", line=1, col=0, code="RDL002", message="m")
        blob = json.loads(render_json([f]))
        assert blob["count"] == 1
        assert blob["ok"] is False
        assert blob["findings"][0]["code"] == "RDL002"
        assert json.loads(render_json([]))["ok"] is True

    def test_explain_mirrors_explain_style(self):
        text = explain_rule("RDL010")
        assert text.startswith("RDL010 — executor-closure-escape")
        assert "suppress with: # repro: noqa RDL010" in text

    def test_ignore_drops_a_rule(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        assert codes(lint_source(src, NEUTRAL)) == ["RDL006"]
        assert lint_source(src, NEUTRAL, ignore=["RDL006"]) == []


# -- noqa suppression --------------------------------------------------


class TestNoqa:
    SRC = """
    class Fake:
        def matvec(self, x):
            for i in range(3):  {marker}
                x = x + i
            return x
    """

    def _lint_with(self, marker):
        return lint(self.SRC.format(marker=marker), FORMATS, "RDL001")

    def test_fires_without_marker(self):
        assert codes(self._lint_with("")) == ["RDL001"]

    def test_bare_noqa_suppresses_everything(self):
        assert self._lint_with("# repro: noqa") == []

    def test_coded_noqa_suppresses_that_code(self):
        assert self._lint_with("# repro: noqa RDL001 — ndig loop") == []

    def test_wrong_code_does_not_suppress(self):
        assert codes(self._lint_with("# repro: noqa RDL002")) == ["RDL001"]

    def test_plain_flake8_noqa_is_not_ours(self):
        assert codes(self._lint_with("# noqa")) == ["RDL001"]

    def test_suppressed_codes_parsing(self):
        src = "a = 1  # repro: noqa RDL001, RDL004\nb = 2  # repro: noqa\n"
        table = suppressed_codes(src)
        assert table[1] == frozenset({"RDL001", "RDL004"})
        assert table[2] is None


# -- RDL001: hot-path Python loop --------------------------------------


class TestHotPathLoop:
    def test_fires_on_loop_in_kernel_method(self):
        src = """
        class FakeMatrix:
            def matvec(self, x, counter=None):
                y = list(x)
                for i in range(len(y)):
                    y[i] = y[i] * 2.0
                return y
        """
        findings = lint(src, FORMATS, "RDL001")
        assert codes(findings) == ["RDL001"]
        assert "FakeMatrix.matvec" in findings[0].message

    def test_fires_on_while_in_smsv(self):
        src = """
        class FakeMatrix:
            def smsv(self, v):
                i = 0
                while i < 10:
                    i += 1
                return i
        """
        assert codes(lint(src, FORMATS, "RDL001")) == ["RDL001"]

    def test_clean_on_vectorised_kernel(self):
        src = """
        import numpy as np

        class FakeMatrix:
            def matvec(self, x, counter=None):
                return self.data @ x

            def row_norms_sq(self):
                return np.einsum("ij,ij->i", self.data, self.data)
        """
        assert lint(src, FORMATS, "RDL001") == []

    def test_loops_outside_kernel_methods_allowed(self):
        src = """
        class FakeMatrix:
            def to_coo(self):
                for k in range(self.ndig):
                    yield k
        """
        assert lint(src, FORMATS, "RDL001") == []

    def test_out_of_scope_path_ignored(self):
        src = """
        class Model:
            def matvec(self, x):
                for i in range(3):
                    x += i
                return x
        """
        assert lint(src, NEUTRAL, "RDL001") == []


# -- RDL002: raw dtype literal -----------------------------------------


class TestRawDtypeLiteral:
    def test_fires_on_np_float64(self):
        src = """
        import numpy as np

        def build(n):
            return np.zeros(n, dtype=np.float64)
        """
        findings = lint(src, DATA, "RDL002")
        assert codes(findings) == ["RDL002"]
        assert "VALUE_DTYPE" in findings[0].message

    def test_fires_on_np_int32_and_string_dtype(self):
        src = """
        import numpy as np

        def build(rows):
            idx = np.asarray(rows, dtype=np.int32)
            vals = np.asarray(rows, dtype="float64")
            return idx, vals
        """
        findings = lint(src, FORMATS, "RDL002")
        assert codes(findings) == ["RDL002", "RDL002"]
        assert "INDEX_DTYPE" in findings[0].message

    def test_clean_with_canonical_aliases(self):
        src = """
        import numpy as np
        from repro.formats.base import INDEX_DTYPE, VALUE_DTYPE

        def build(rows):
            idx = np.asarray(rows, dtype=INDEX_DTYPE)
            return np.zeros(len(idx), dtype=VALUE_DTYPE)
        """
        assert lint(src, DATA, "RDL002") == []

    def test_int64_pointer_arrays_not_flagged(self):
        src = """
        import numpy as np

        def ptr(n):
            return np.zeros(n + 1, dtype=np.int64)
        """
        assert lint(src, FORMATS, "RDL002") == []

    def test_defining_module_exempt(self):
        src = "import numpy as np\nVALUE_DTYPE = np.float64\n"
        assert lint(src, "src/repro/formats/base.py", "RDL002") == []

    def test_dnn_out_of_scope(self):
        src = "import numpy as np\nX = np.zeros(3, dtype=np.float64)\n"
        assert lint(src, "src/repro/dnn/images.py", "RDL002") == []


# -- RDL010 on worker-pool closures (more in test_concurrency_rules.py) -


class TestParallelClosureCapture:
    def test_fires_on_nonlocal_accumulator(self):
        src = """
        def run(pool, items):
            total = 0.0

            def work(item):
                nonlocal total
                total += item

            pool.map(work, items)
            return total
        """
        findings = lint(src, NEUTRAL, "RDL010")
        assert codes(findings) == ["RDL010"]
        assert "nonlocal" in findings[0].message

    def test_fires_on_append_to_captured_list(self):
        src = """
        def run(pool, items):
            results = []

            def work(item):
                results.append(item * 2)

            pool.map(work, items)
            return results
        """
        findings = lint(src, NEUTRAL, "RDL010")
        assert codes(findings) == ["RDL010"]
        assert "results" in findings[0].message

    def test_fires_on_fixed_index_write(self):
        src = """
        def run(executor, items, out):
            def work(item):
                out[0] = item

            executor.submit(work, items)
        """
        findings = lint(src, NEUTRAL, "RDL010")
        assert codes(findings) == ["RDL010"]
        assert "disjoint" in findings[0].message

    def test_fires_via_parallel_map_lambda(self):
        src = """
        def run(items, acc):
            parallel_map(lambda item: acc.update({item: 1}), items)
        """
        assert codes(lint(src, NEUTRAL, "RDL010")) == ["RDL010"]

    def test_clean_on_disjoint_slice_discipline(self):
        src = """
        def run(pool, blocks, y, kernel):
            def work(block):
                s, e = block
                y[s:e] = kernel(block)

            pool.map(work, blocks)
            return y
        """
        assert lint(src, NEUTRAL, "RDL010") == []

    def test_clean_on_pure_map(self):
        src = """
        def run(pool, items):
            return pool.map(lambda item: item * 2, items)
        """
        assert lint(src, NEUTRAL, "RDL010") == []

    def test_non_pool_receiver_ignored(self):
        src = """
        def run(mapping, items):
            def work(item):
                mapping.bad.append(item)

            mapping.map(work, items)
        """
        # receiver name carries no pool/executor hint -> out of scope
        assert lint(src, NEUTRAL, "RDL010") == []


# -- RDL004: missing OpCounter accounting ------------------------------


class TestMissingOpCounter:
    def test_fires_when_counter_never_reported(self):
        src = """
        class FakeMatrix:
            def matvec(self, x, counter=None):
                return self.data @ x
        """
        findings = lint(src, FORMATS, "RDL004")
        assert codes(findings) == ["RDL004"]
        assert "never reports" in findings[0].message

    def test_clean_when_counter_adds(self):
        src = """
        class FakeMatrix:
            def matvec(self, x, counter=None):
                y = self.data @ x
                if counter is not None:
                    counter.add_flops(2 * self.nnz)
                return y
        """
        assert lint(src, FORMATS, "RDL004") == []

    def test_clean_when_counter_forwarded(self):
        src = """
        class FakeMatrix:
            def smsv(self, v, counter=None):
                return self.matvec(v.to_dense(), counter)
        """
        assert lint(src, FORMATS, "RDL004") == []

    def test_abstract_stub_exempt(self):
        src = """
        import abc

        class Base(abc.ABC):
            @abc.abstractmethod
            def matvec(self, x, counter=None):
                \"\"\"Docstring only.\"\"\"
        """
        assert lint(src, FORMATS, "RDL004") == []

    def test_kernel_without_counter_param_exempt(self):
        src = """
        class FakeMatrix:
            def matvec(self, x):
                return self.data @ x
        """
        assert lint(src, FORMATS, "RDL004") == []


# -- RDL005: scheduler-cache key hygiene -------------------------------


class TestSchedulerCacheKey:
    def test_fires_on_unhashable_key(self):
        src = """
        def remember(cache, profile, fmt):
            cache.put([profile.vdim, profile.density], fmt)
        """
        findings = lint(src, CORE, "RDL005")
        assert codes(findings) == ["RDL005"]
        assert "unhashable" in findings[0].message

    def test_fires_on_unquantised_profile_vector(self):
        src = """
        def remember(self, profile, fmt):
            self._cache[tuple(profile.as_vector())] = fmt
        """
        findings = lint(src, CORE, "RDL005")
        assert codes(findings) == ["RDL005"]
        assert "quantise" in findings[0].message

    def test_fires_on_cache_class_key_method(self):
        src = """
        class DecisionCache:
            def key(self, profile):
                return tuple(profile.as_vector())
        """
        assert codes(lint(src, CORE, "RDL005")) == ["RDL005"]

    def test_clean_when_quantised(self):
        src = """
        class DecisionCache:
            def key(self, profile):
                return tuple(
                    self._quantise(v) for v in profile.as_vector()
                )

        def remember(cache, key, fmt):
            cache.put(key, fmt)
        """
        assert lint(src, CORE, "RDL005") == []

    def test_out_of_scope_path_ignored(self):
        src = """
        def remember(cache, profile, fmt):
            cache.put([profile.vdim], fmt)
        """
        assert lint(src, NEUTRAL, "RDL005") == []


# -- RDL006: swallowed exceptions --------------------------------------


class TestSwallowedException:
    def test_bare_except_fires_everywhere(self):
        src = """
        def risky():
            try:
                return 1
            except:
                return 0
        """
        findings = lint(src, NEUTRAL, "RDL006")
        assert codes(findings) == ["RDL006"]
        assert "KeyboardInterrupt" in findings[0].message

    def test_silent_swallow_fires_in_io_path(self):
        src = """
        def parse(line):
            try:
                return float(line)
            except ValueError:
                pass
        """
        findings = lint(src, DATA, "RDL006")
        assert codes(findings) == ["RDL006"]
        assert "silently swallowed" in findings[0].message

    def test_silent_swallow_allowed_outside_io(self):
        src = """
        def probe(fn):
            try:
                return fn()
            except ValueError:
                pass
        """
        assert lint(src, CORE, "RDL006") == []

    def test_reraise_with_context_clean(self):
        src = """
        def parse(line, path):
            try:
                return float(line)
            except ValueError as exc:
                raise ValueError(f"bad line in {path}") from exc
        """
        assert lint(src, DATA, "RDL006") == []

    def test_warn_is_enough(self):
        src = """
        import warnings

        def parse(line):
            try:
                return float(line)
            except ValueError:
                warnings.warn(f"skipping bad line {line!r}")
                return None
        """
        assert lint(src, DATA, "RDL006") == []


# -- RDL004 on the SpMM entry points (matmat/smsv_multi) ---------------


class TestMissingSpmmCounter:
    def test_fires_on_silent_matmat(self):
        src = """
        class FakeMatrix:
            def matmat(self, V, counter=None):
                return self.data @ V
        """
        findings = lint(src, FORMATS, "RDL004")
        assert codes(findings) == ["RDL004"]
        assert "never reports" in findings[0].message

    def test_fires_on_silent_smsv_multi(self):
        src = """
        class FakeMatrix:
            def smsv_multi(self, vectors, counter=None):
                return self.data @ scatter(vectors)
        """
        assert codes(lint(src, FORMATS, "RDL004")) == ["RDL004"]

    def test_clean_when_add_spmm_called(self):
        src = """
        class FakeMatrix:
            def matmat(self, V, counter=None):
                y = self.data @ V
                if counter is not None:
                    counter.add_spmm(V.shape[1])
                return y
        """
        assert lint(src, FORMATS, "RDL004") == []

    def test_clean_when_counter_forwarded(self):
        src = """
        class FakeMatrix:
            def smsv_multi(self, vectors, counter=None):
                return self.matmat(scatter(vectors), counter)
        """
        assert lint(src, FORMATS, "RDL004") == []

    def test_outside_formats_out_of_scope(self):
        src = """
        class Proxy:
            def matmat(self, V, counter=None):
                return self.inner.matmat(V)
        """
        assert lint(src, NEUTRAL, "RDL004") == []


# -- RDL008: unguarded allocation in span instrumentation --------------


class TestSpanAllocation:
    def test_fires_on_fstring_span_name(self):
        src = """
        def smsv(self, v):
            with tracer.span(f"formats.smsv.{self.name}"):
                return self.data @ v
        """
        findings = lint(src, FORMATS, "RDL008")
        assert codes(findings) == ["RDL008"]
        assert "tracing disabled" in findings[0].message

    def test_fires_on_unguarded_set(self):
        src = """
        def convert(matrix, cls):
            with tracer.span("formats.convert") as sp:
                sp.set("from", matrix.name)
                return cls.from_coo(*matrix.to_coo())
        """
        findings = lint(src, FORMATS, "RDL008")
        assert codes(findings) == ["RDL008"]
        assert "sp.set" in findings[0].message

    def test_clean_when_set_guarded(self):
        src = """
        def convert(matrix, cls):
            with tracer.span("formats.convert") as sp:
                if tracer.enabled:
                    sp.set("from", matrix.name)
                    sp.set("nnz", int(matrix.nnz))
                return cls.from_coo(*matrix.to_coo())
        """
        assert lint(src, FORMATS, "RDL008") == []

    def test_fires_on_dict_literal_span_argument(self):
        src = """
        def smsv(self, v):
            with tracer.span("formats.smsv", {"fmt": self.name}):
                return self.data @ v
        """
        assert codes(lint(src, FORMATS, "RDL008")) == ["RDL008"]

    def test_constant_names_and_bare_spans_clean(self):
        src = """
        def smsv(self, v):
            with tracer.span("formats.smsv"):
                return self.data @ v
        """
        assert lint(src, FORMATS, "RDL008") == []

    def test_nested_guard_blocks_cover_loops(self):
        src = """
        def sweep(self, batches):
            with tracer.span("serve.sweep") as sp:
                if tracer.enabled:
                    for b in batches:
                        sp.set("k", len(b))
                return [self.predict(b) for b in batches]
        """
        assert lint(src, "src/repro/serve/fake.py", "RDL008") == []

    def test_obs_itself_is_in_scope(self):
        # The observability plane runs on serving hot paths (flight
        # recorder, SLO monitor), so repro.obs holds itself to the
        # same allocation discipline.
        src = """
        def report(records):
            with tracer.span(f"obs.report.{len(records)}") as sp:
                sp.set("n", len(records))
        """
        findings = lint(src, "src/repro/obs/fake.py", "RDL008")
        assert len(findings) == 2

    def test_outside_hot_packages_out_of_scope(self):
        # The CLI may pay for convenience.
        src = """
        def report(records):
            with tracer.span(f"obs.report.{len(records)}") as sp:
                sp.set("n", len(records))
        """
        assert lint(src, "src/repro/cli.py", "RDL008") == []

    def test_instrumented_tree_self_check(self):
        # The real instrumented packages must satisfy their own rule.
        import pathlib

        import repro
        from repro.analysis.lint import lint_paths

        pkg = pathlib.Path(repro.__file__).parent
        findings = lint_paths([pkg], select=["RDL008"])
        assert findings == []
