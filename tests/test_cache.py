import json
import os
import warnings

from qkzkit.cache import ENV_VAR, _key, cache_dir, load_normalized
from qkzkit.cli import EXIT_OK, run
from qkzkit.families import build_rational


def _same_payload(a, b):
    return (
        a.f0 == b.f0
        and a.rho == b.rho
        and a.qdet.coeffs == b.qdet.coeffs
        and a.qdet.eigenvalue == b.qdet.eigenvalue
    )


class TestCache:
    def test_cold_then_warm_identical(self):
        F = build_rational(2, 2)
        cold = load_normalized(F)
        files = list(cache_dir().glob("*.json"))
        assert len(files) == 1
        warm = load_normalized(F)
        assert _same_payload(cold, warm)

    def test_warm_load_skips_recompute(self, monkeypatch):
        F = build_rational(2, 2)
        load_normalized(F)
        import qkzkit.cache as cache_mod

        def boom(_):
            raise AssertionError("recompute on a warm cache")

        monkeypatch.setattr(cache_mod, "normalize", boom)
        warm = load_normalized(F)  # must come from disk
        assert warm.f0.is_unit

    def test_tampered_entry_warns_and_recomputes(self):
        F = build_rational(2, 2)
        clean = load_normalized(F)
        path = next(cache_dir().glob("*.json"))
        data = json.loads(path.read_text())
        data["payload"]["f0"][0] = "2/1*w^0 / 1/1*w^0"  # corrupt the payload
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = load_normalized(F)
        assert any("recomputing" in str(w.message) for w in caught)
        assert _same_payload(clean, again)

    def test_distinct_keys_per_family(self):
        load_normalized(build_rational(2, 2))
        load_normalized(build_rational(3, 2))
        assert len(list(cache_dir().glob("*.json"))) == 2

    def test_unwritable_directory_only_warns(self, tmp_path, monkeypatch):
        # a cache directory under a regular file used to compute the
        # normalization and then exit 2 with "[Errno 20] Not a directory"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"family": "rational", "N": 2, "D": 2, "suite": "normalize"}
        ))

        def report(name):
            out = tmp_path / name
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
            rep = json.loads(out.read_text())
            for c in rep["checks"]:
                del c["wall_time_ms"]
            del rep["config"]["out"]
            return rep, [str(w.message) for w in caught]

        writable, none = report("writable.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv(ENV_VAR, str(blocker / "cache"))
        unwritable, caught = report("unwritable.json")
        assert none == [] and len(caught) == 1 and "not written" in caught[0]
        assert unwritable == writable

    def test_temporary_name_carries_the_pid(self, monkeypatch):
        # a fixed <key>.tmp let two concurrent runs truncate each other's file
        F = build_rational(2, 2)
        replaced = []
        real_replace = os.replace

        def recording(src, dst):
            replaced.append((os.path.basename(src), os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "getpid", lambda: 4242)
        monkeypatch.setattr(os, "replace", recording)
        load_normalized(F)
        assert replaced == [(f"{_key(F)}.4242.tmp", f"{_key(F)}.json")]
