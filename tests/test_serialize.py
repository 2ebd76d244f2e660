from fractions import Fraction

import pytest

from qkzkit.errors import KernelError
from qkzkit.families import ArgShift
from qkzkit.hseries import HSeries, hseries_to_str
from qkzkit.reps import ComoduleWord
from qkzkit.scalar import ADDITIVE, MULTIPLICATIVE, Scalar
from qkzkit.serialize import (
    RunConfig,
    argshift_to_str,
    decode_instance,
    dict_to_word,
    list_to_scalar,
    scalar_to_list,
    str_to_argshift,
)

D = 3


def word_dict(word) -> dict:
    return {"factors": [argshift_to_str(a) for a in word.letters]}


class TestScalarRoundTrip:
    def test_round_trip(self):
        w = Scalar.coordinate(D)
        s = (w * w + Scalar.from_hseries(HSeries.h(D))) * w.inv()
        assert list_to_scalar(scalar_to_list(s)) == s

    def test_mode_preserved(self):
        s = Scalar.coordinate(D, MULTIPLICATIVE)
        back = list_to_scalar(scalar_to_list(s), MULTIPLICATIVE)
        assert back == s and back.mode == MULTIPLICATIVE


class TestArgShiftRoundTrip:
    def test_plain(self):
        a = ArgShift.of(Fraction(5, 3), D)
        assert str_to_argshift(argshift_to_str(a), D) == a

    def test_with_h_part(self):
        a = ArgShift(Fraction(2), HSeries.h(D).scale(Fraction(7, 2)))
        assert str_to_argshift(argshift_to_str(a), D) == a


class TestWordRoundTrip:
    def test_round_trip(self):
        w = ComoduleWord.of([Fraction(0), Fraction(1, 2)], D)
        assert dict_to_word(word_dict(w), D) == w

    def test_unknown_field_rejected(self):
        with pytest.raises(KernelError, match="unknown word fields"):
            dict_to_word({"factors": [], "extra": 1}, D)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(
            "rational", 2, 3, suite="qkz",
            instances=[{"points": ["0", "1"], "words": [
                {"factors": ["0"]}, {"factors": ["0"]}
            ], "K": "1"}],
        )
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_config_field_rejected(self):
        with pytest.raises(KernelError, match="unknown config fields"):
            RunConfig.from_dict({"family": "rational", "wat": 1})

    def test_unknown_instance_field_rejected(self):
        with pytest.raises(KernelError, match="unknown instance fields"):
            RunConfig.from_dict({
                "family": "rational",
                "instances": [{"points": [], "words": [], "seed": 3}],
            })

    def test_unknown_suite_rejected(self):
        with pytest.raises(KernelError, match="unknown suite"):
            RunConfig("rational", 2, 3, suite="everything")

    @pytest.mark.parametrize("N, D", [(2.7, 1.9), (2, 1.9), (True, 3), (2, None)])
    def test_non_integer_n_or_d_rejected(self, N, D):
        # N and D used to be coerced with int(), so 2.7 and 1.9 ran N=2, D=1
        with pytest.raises(KernelError, match="must be an integer"):
            RunConfig("rational", N, D)

    def test_d_below_suite_minimum_rejected(self):
        with pytest.raises(KernelError, match="suite 'normalize' needs D >= 2, got 1"):
            RunConfig("rational", 2, 1, suite="normalize")

    @pytest.mark.parametrize("suite", ["qybe", "crossing", "normalize", "reps"])
    @pytest.mark.parametrize("extra", [
        {"fault": "drop-step-shift"},
        {"instances": [{"points": ["0", "1"], "words": []}]},
    ], ids=["fault", "instances"])
    def test_qkz_fields_rejected_without_qkz_rows(self, suite, extra):
        with pytest.raises(KernelError, match="apply only with suite qkz or all"):
            RunConfig("rational", 2, 4, suite=suite, **extra)

    def test_overrides_replace_fields(self):
        cfg = RunConfig.from_dict(
            {"family": "rational", "D": 3, "suite": "qkz",
             "fault": "drop-step-shift"},
            suite="all", D=2, out="r.json",
        )
        assert cfg.to_dict() == {
            "family": "rational", "N": 2, "D": 2, "suite": "all",
            "instances": [], "out": "r.json", "fault": "drop-step-shift",
        }


class TestInstanceRoundTrip:
    def test_encode_decode(self, nf_rat2):
        nf = nf_rat2
        raw = {
            "points": ["0", "1", "5/2"],
            "words": [{"factors": ["0"]}] * 3,
            "K": "1",
        }
        inst = decode_instance(raw, nf, nf.D)
        encoded = {
            "points": [argshift_to_str(z) for z in inst.z],
            "words": [word_dict(w) for w in inst.words],
            "K": hseries_to_str(inst.K),
        }
        again = decode_instance(encoded, nf, nf.D)
        assert again.z == inst.z
        assert again.words == inst.words
        assert again.K == inst.K
