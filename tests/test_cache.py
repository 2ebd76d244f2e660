import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzkit.cache import (
    ENV_VAR,
    _key,
    _payload_digest,
    cache_dir,
    load_normalized,
    sha256,
)
from qkzkit.cli import EXIT_OK, run
from qkzkit.families import build_rational
from qkzkit.serialize import list_to_scalar

GOLDEN = Path(__file__).parent / "golden"


def _signed(payload):
    """A cache entry holding payload under its valid digest."""
    return {"payload": payload, "digest": _payload_digest(payload)}


#: name -> a malformed entry made from a clean one; each must warn and
#: recompute, not end the run with exit 3
MALFORMED = {
    "not-an-object": lambda entry: [],
    "short-f0": lambda entry: _signed(
        dict(entry["payload"], f0=entry["payload"]["f0"][:3])
    ),
    "integer-grade": lambda entry: _signed(
        dict(entry["payload"], f0=[1] + entry["payload"]["f0"][1:])
    ),
    "zero-denominator": lambda entry: _signed(
        dict(entry["payload"], f0=["1/1*w^0 / 0/1*w^0"] + entry["payload"]["f0"][1:])
    ),
    # read as 0 under a valid digest before negative exponents were refused
    "negative-exponent": lambda entry: _signed(
        dict(entry["payload"], f0=["1/1*w^-1 / 1/1*w^0"] + entry["payload"]["f0"][1:])
    ),
}


def _count_normalize(monkeypatch) -> list:
    """Make cache.normalize append to the returned list on every call."""
    import qkzkit.cache as cache_mod

    calls = []
    real = cache_mod.normalize

    def counting(G):
        calls.append(1)
        return real(G)

    monkeypatch.setattr(cache_mod, "normalize", counting)
    return calls


class TestCache:
    def test_cold_then_warm_identical(self):
        F = build_rational(2, 2)
        cold = load_normalized(F)
        files = list(cache_dir().glob("*.json"))
        assert len(files) == 1
        warm = load_normalized(F)
        assert cold.f0 == warm.f0
        assert set(json.loads(files[0].read_text())["payload"]) == {
            "descriptor", "f0",
        }

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
        assert clean.f0 == again.f0

    def test_entry_of_the_full_layout_loads(self, monkeypatch):
        # entries once also held rho, the eigenvalue and the coefficients;
        # such an entry under a valid digest is read for f0 alone
        F = build_rational(4, 4)
        golden = json.loads((GOLDEN / "normalize-rational-N4-D4.json").read_text())
        path = cache_dir() / f"{_key(F)}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(_signed(golden)))
        calls = _count_normalize(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nf = load_normalized(F)
        assert calls == [] and caught == []
        assert nf.f0 == list_to_scalar(golden["f0"], F.mode)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_entry_warns_and_recomputes(self, name, tmp_path, monkeypatch):
        F = build_rational(2, 4)
        clean = load_normalized(F)
        path = next(cache_dir().glob("*.json"))
        entry = json.loads(path.read_text())
        path.write_text(json.dumps(MALFORMED[name](entry)))
        calls = _count_normalize(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            again = load_normalized(F)
        assert calls == [1]
        [warning] = [str(w.message) for w in caught]
        assert warning.startswith(f"cache entry {path} unusable (")
        assert warning.endswith("); recomputing")
        assert again.f0 == clean.f0
        assert json.loads(path.read_text()) == entry

        # the command line recomputes as well, and exits 0
        path.write_text(json.dumps(MALFORMED[name](entry)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"family": "rational", "N": 2, "D": 4, "suite": "normalize"}
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["--config", str(cfg)]) == EXIT_OK
        assert calls == [1, 1] and len(caught) == 1
        assert json.loads(path.read_text()) == entry

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

    def test_failed_write_leaves_no_temporary_file(self):
        # an entry path that is a directory: the rename fails, and each such
        # run used to leave one <key>.<pid>.tmp behind
        F = build_rational(2, 2)
        (cache_dir() / f"{_key(F)}.json").mkdir(parents=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_normalized(F)
        assert any("not written" in str(w.message) for w in caught)
        assert list(cache_dir().glob("*.tmp")) == []

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


#: JSON values: the shapes a cache payload is built from
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


class TestLayoutPin:
    """Entry file names and digests written by earlier versions stay valid."""

    def test_rational_n4_key(self):
        assert _key(build_rational(4, 4)) == "662e0cde55d5bfe944aa7433"

    def test_golden_n4_payload_digest(self):
        golden = json.loads((GOLDEN / "normalize-rational-N4-D4.json").read_text())
        payload = {key: golden[key] for key in ("descriptor", "f0")}
        assert _payload_digest(payload) == (
            "c17fc529d38c95687445e255cd4f8227b10cf9faa8f50c8c3bffc960333e2e98"
        )

    def test_hashlib_fallback_gives_the_same_digest(self):
        # without CPython's built-in modules the digest comes from hashlib
        code = (
            "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "from qkzkit.cache import sha256; "
            "print(sha256.__module__, sha256(b'qkzkit').hexdigest())"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.split()
        assert out[0] in ("_hashlib", "hashlib")
        assert out[1] == sha256(b"qkzkit").hexdigest()

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), _json, max_size=4))
    def test_digest_is_sha256_of_sorted_json(self, payload):
        import hashlib

        text = json.dumps(payload, sort_keys=True)
        assert _payload_digest(payload) == hashlib.sha256(text.encode()).hexdigest()
