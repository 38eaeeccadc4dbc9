"""Build diagnostics and the by-construction kernel ABI.

The compiled path is allowed to be unavailable (the engine then replays
every policy through its generic loop), but a toolchain that exists and
*fails* must surface:
once as a RuntimeWarning at first use, and persistently through
``build_error()`` so ``python -m repro.analysis`` can report it.

The C side of the kernel ABI is generated from ``ckernels.KERNEL_ABI``,
so each kind of drift is pinned here by a seeded mutation against a
copy of ``kernels.c``: the build fails (or the call raises) and the
diagnostic names the cause.
"""

import subprocess
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.apps import PageRank
from repro.cache import CacheConfig, HierarchyConfig
from repro.graph import uniform_random
from repro.sim import ckernels, prepare_run, simulate_prepared
from repro.sim.constants import C_PARITY, TOPT_NEVER
from repro.sim.driver import POPT_POLICIES
from repro.sim.kernels import _f64, _i64, _u8


@pytest.fixture
def isolated_build(tmp_path, monkeypatch):
    """Point the build cache at a tmpdir and restore memoized state."""
    monkeypatch.setenv("REPRO_CKERNELS_DIR", str(tmp_path))
    ckernels.reset()
    yield tmp_path
    ckernels.reset()


class TestBuildFailure:
    def test_failing_compiler_warns_and_records(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert ckernels.lib() is None
        assert not ckernels.available()
        error = ckernels.build_error()
        assert error is not None
        assert "/bin/false" in error
        assert "status 1" in error

    def test_failure_is_memoized_and_warned_once(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning):
            ckernels.lib()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ckernels.lib() is None

    def test_unrunnable_compiler_is_reported(
        self, isolated_build, monkeypatch
    ):
        missing = str(isolated_build / "no-such-cc")
        monkeypatch.setenv(ckernels.CC_ENV, missing)
        with pytest.warns(RuntimeWarning, match="could not run"):
            assert ckernels.lib() is None
        assert "could not run" in (ckernels.build_error() or "")

    def test_stderr_first_line_is_captured(
        self, isolated_build, monkeypatch
    ):
        fake_cc = isolated_build / "fake-cc"
        fake_cc.write_text(
            "#!/bin/sh\necho 'kernels.c:1:1: error: boom' >&2\nexit 1\n"
        )
        fake_cc.chmod(0o755)
        monkeypatch.setenv(ckernels.CC_ENV, str(fake_cc))
        with pytest.warns(RuntimeWarning, match="boom"):
            ckernels.lib()
        assert "error: boom" in (ckernels.build_error() or "")

    def test_reset_clears_recorded_failure(
        self, isolated_build, monkeypatch
    ):
        monkeypatch.setenv(ckernels.CC_ENV, "/bin/false")
        with pytest.warns(RuntimeWarning):
            ckernels.lib()
        assert ckernels.build_error() is not None
        ckernels.reset()
        assert ckernels.build_error() is None

    def test_missing_toolchain_is_not_a_failure(
        self, isolated_build, monkeypatch
    ):
        # No compiler at all is the expected no-toolchain configuration:
        # recorded for reporting, but not warned about.
        monkeypatch.delenv(ckernels.CC_ENV, raising=False)
        monkeypatch.setenv("PATH", str(isolated_build))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ckernels.lib() is None
        assert "no C compiler found" in (ckernels.build_error() or "")


def _require_toolchain():
    cc = ckernels._compiler()
    if cc is None:
        pytest.skip("no C compiler on this machine")
    try:
        subprocess.run([cc, "--version"], check=True, capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("toolchain present but not runnable")


class TestWorkingToolchain:
    def test_real_toolchain_builds_without_error(self, isolated_build):
        _require_toolchain()
        assert ckernels.available()
        assert ckernels.build_error() is None


def _mutated_source(tmp_path, monkeypatch, old, new):
    """Build from a copy of kernels.c with ``old`` replaced by ``new``."""
    text = ckernels._SOURCE.read_text()
    assert old in text, old
    source = tmp_path / "kernels.c"
    source.write_text(text.replace(old, new, 1))
    monkeypatch.setattr(ckernels, "_SOURCE", source)


_K_LRU = "void k_lru(const i64 *lines, const u8 *writes,"
_K_NEXT_USE = ("void k_next_use(const i64 *lines, i64 n, i64 cap, "
               "i64 *ws, i64 *next_use)")
_NEXT_USE_BODY = "    i64 *keys = ws;\n"

#: (case, text in kernels.c, replacement, words the diagnostic names).
_MUTATIONS = [
    ("widened-argument", _K_LRU,
     "void k_lru(const i64 *lines, const i64 *writes,",
     ("conflicting types", "k_lru")),
    ("extra-argument", _K_NEXT_USE,
     _K_NEXT_USE[:-1] + ", i64 extra)",
     ("conflicting types", "k_next_use")),
    ("unlisted-export", _K_LRU,
     "void k_ghost(i64 *out) { out[0] = 0; }\n\n" + _K_LRU,
     ("no previous prototype", "k_ghost")),
    ("forked-define", _K_LRU,
     "#define TOPT_NEVER ((i64)1 << 41)\n\n" + _K_LRU,
     ("redefined", "TOPT_NEVER")),
    ("libc-include", _K_LRU,
     "#include <stdlib.h>\n\n" + _K_LRU,
     ("stdlib.h",)),
    ("malloc-call", _NEXT_USE_BODY,
     "    i64 *keys = (i64 *)malloc(8 * cap);\n",
     ("malloc",)),
]


class TestAbiByConstruction:
    """Seeded drifts between ``kernels.c`` and ``KERNEL_ABI`` fail the
    build (or raise at the call), naming the cause."""

    @pytest.mark.parametrize(
        "old,new,names",
        [case[1:] for case in _MUTATIONS],
        ids=[case[0] for case in _MUTATIONS],
    )
    def test_mutation_fails_build(
        self, isolated_build, monkeypatch, old, new, names
    ):
        _require_toolchain()
        _mutated_source(isolated_build, monkeypatch, old, new)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert ckernels.lib() is None
        error = ckernels.build_error() or ""
        for name in names:
            assert name in error, error

    def test_table_entry_without_definition_fails_load(
        self, isolated_build, monkeypatch
    ):
        _require_toolchain()
        monkeypatch.setitem(ckernels.KERNEL_ABI, "k_ghost", ("i64 *out",))
        with pytest.warns(RuntimeWarning, match="k_ghost"):
            assert ckernels.lib() is None

    def test_unmutated_copy_builds(self, isolated_build, monkeypatch):
        """Control for the mutations: the copy itself is not the cause."""
        _require_toolchain()
        _mutated_source(isolated_build, monkeypatch, _K_LRU, _K_LRU)
        assert ckernels.available()
        assert ckernels.build_error() is None

    def test_header_carries_table_and_constants(self):
        header = ckernels.header_text()
        assert f"#define TOPT_NEVER ((i64){TOPT_NEVER})" in header
        assert all(f"#define {name} " in header for name in C_PARITY)
        assert ("void k_next_use(const i64 *lines, i64 n, i64 cap, "
                "i64 *ws, i64 *next_use);") in header
        assert "#include" not in header

    def test_malformed_table_entry_is_rejected(self, monkeypatch):
        monkeypatch.setitem(
            ckernels.KERNEL_ABI, "k_next_use", ("const i64 n",)
        )
        with pytest.raises(ValueError, match="malformed"):
            ckernels.header_text()

    def test_table_change_rebuilds(self, isolated_build, monkeypatch):
        _require_toolchain()
        assert ckernels.available()
        assert len(list(isolated_build.glob("*.so"))) == 1
        params = ckernels.KERNEL_ABI["k_next_use"]
        monkeypatch.setitem(
            ckernels.KERNEL_ABI, "k_next_use",
            tuple("i64 capacity" if p == "i64 cap" else p for p in params),
        )
        ckernels.reset()
        assert ckernels.available()
        assert len(list(isolated_build.glob("*.so"))) == 2
        assert len(list(isolated_build.glob("kernels_abi_*.h"))) == 2

    @pytest.mark.parametrize(
        "extra,cause",
        [(1, "exactly 5 arguments"), (-1, "next_use")],
        ids=["one-more", "one-less"],
    )
    def test_wrong_arity_raises(self, extra, cause):
        clib = ckernels.lib()
        if clib is None:
            pytest.skip("compiled kernels unavailable")
        next_use = np.zeros(4, dtype=np.int64)
        args = [_i64(np.arange(4, dtype=np.int64)), 4, 8,
                _i64(np.empty(16, dtype=np.int64)), _i64(next_use)]
        clib.k_next_use(*args)
        assert next_use.tolist() == [4, 4, 4, 4]
        args = args + [0] if extra > 0 else args[:-1]
        with pytest.raises(TypeError, match=cause):
            clib.k_next_use(*args)


class TestPointerWrappers:
    """``_i64``/``_u8``/``_f64`` refuse arrays C would misread."""

    def test_wrong_width_raises(self):
        with pytest.raises(TypeError, match="int32"):
            _i64(np.zeros(4, dtype=np.int32))
        with pytest.raises(TypeError, match="float32"):
            _f64(np.zeros(4, dtype=np.float32))

    def test_strided_view_raises(self):
        with pytest.raises(TypeError, match="C-contiguous"):
            _i64(np.zeros(8, dtype=np.int64)[::2])

    def test_matching_arrays_pass(self):
        _i64(np.zeros(4, dtype=np.int64))
        _u8(np.zeros(4, dtype=np.uint8))
        _u8(np.zeros(4, dtype=bool))  # same one-byte layout
        _f64(np.zeros(4, dtype=np.float64))


def test_every_kernel_is_stateless_across_calls(monkeypatch):
    """Every ``k_*`` runs twice in one process with identical output:
    no kernel keeps state between calls."""
    clib = ckernels.lib()
    if clib is None:
        pytest.skip("compiled kernels unavailable")
    calls: Counter = Counter()
    for name in ckernels.KERNEL_ABI:
        def counted(*args, _fn=getattr(clib, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(clib, name, counted)

    graph = uniform_random(256, avg_degree=6.0, seed=7)
    hierarchy = HierarchyConfig(
        l1=CacheConfig("L1", num_sets=2, num_ways=8),
        l2=CacheConfig("L2", num_sets=4, num_ways=8),
        llc=CacheConfig("LLC", num_sets=8, num_ways=16),
    )
    policies = ("LRU", "LIP", "Bit-PLRU", "SRRIP", "BRRIP", "DRRIP",
                "OPT", "SHiP-PC", "Hawkeye") + POPT_POLICIES

    def sweep():
        prepared = prepare_run(PageRank(), graph)
        out = []
        for policy in policies:
            result = simulate_prepared(
                prepared, policy, hierarchy, engine="fast"
            )
            out.append((policy, result.level_counts, result.cycles,
                        result.popt_counters))
        return out

    assert sweep() == sweep()
    assert {name for name, count in calls.items() if count >= 2} \
        == set(ckernels.KERNEL_ABI)
