"""Mutation tests for the ``dtype`` family (``dtype-unspecified``).

One seeded bug per case, written to ``tmp_path``, with a pragma-silenced
twin proving the suppression channel works, and the shipped tree linting
clean. The run-time width checks live in
``tests/sim/test_widthcontracts.py``.
"""

from pathlib import Path
from textwrap import dedent

from repro.analysis import SimlintConfig, run_simlint

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_dtype(tmp_path, source, replay_path=frozenset()):
    module = tmp_path / "mod.py"
    module.write_text(dedent(source))
    config = SimlintConfig(families=("dtype",), replay_path=replay_path)
    return run_simlint([module], config)


def rules_of(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# dtype-unspecified
# ----------------------------------------------------------------------


class TestUnspecified:
    BUGGY = """
        import numpy as np

        def prepare(n):
            return np.arange(n)
    """
    HOT = frozenset({"prepare"})

    def test_platform_default_arange_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, self.BUGGY, replay_path=self.HOT)
        assert "dtype-unspecified" in rules_of(findings)

    def test_pragma_silences(self, tmp_path):
        silenced = self.BUGGY.replace(
            "return np.arange(n)",
            "return np.arange(n)  # simlint: allow[dtype-unspecified]",
        )
        assert lint_dtype(tmp_path, silenced, replay_path=self.HOT) == []

    def test_pinned_dtype_is_clean(self, tmp_path):
        assert lint_dtype(
            tmp_path,
            self.BUGGY.replace("np.arange(n)",
                               "np.arange(n, dtype=np.int64)"),
            replay_path=self.HOT,
        ) == []

    def test_cold_module_is_out_of_scope(self, tmp_path):
        assert lint_dtype(tmp_path, self.BUGGY) == []

    def test_bare_bincount_fires_and_cast_is_the_fix(self, tmp_path):
        source = """
            import numpy as np

            def prepare(values, n):
                return np.bincount(values, minlength=n)
        """
        findings = lint_dtype(tmp_path, source, replay_path=self.HOT)
        assert "dtype-unspecified" in rules_of(findings)
        fixed = source.replace(
            "np.bincount(values, minlength=n)",
            "np.bincount(values, minlength=n).astype(np.int64)",
        )
        assert lint_dtype(tmp_path, fixed, replay_path=self.HOT) == []

    def test_weighted_bincount_is_clean(self, tmp_path):
        """``weights=`` makes bincount float64 on every platform."""
        assert lint_dtype(tmp_path, """
            import numpy as np

            def prepare(values, contrib, n):
                return np.bincount(values, weights=contrib, minlength=n)
        """, replay_path=self.HOT) == []

    def test_integer_full_fires(self, tmp_path):
        findings = lint_dtype(tmp_path, """
            import numpy as np

            def prepare(n):
                return np.full(n, 7)
        """, replay_path=self.HOT)
        assert "dtype-unspecified" in rules_of(findings)


# ----------------------------------------------------------------------
# The shipped tree honors its own contracts
# ----------------------------------------------------------------------


class TestShippedTree:
    def test_dtype_clean(self):
        config = SimlintConfig(families=("dtype",))
        assert run_simlint([SRC_REPRO], config) == []
