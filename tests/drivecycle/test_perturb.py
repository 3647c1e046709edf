"""Traffic-variation ensemble tests."""

import hashlib

import numpy as np
import pytest

from repro.drivecycle.cycle import DriveCycle
from repro.drivecycle.library import available_cycles, get_cycle
from repro.drivecycle.perturb import perturbed


@pytest.fixture(scope="module")
def base():
    return get_cycle("udds")


class TestPerturbed:
    def test_deterministic_per_seed(self, base):
        a = perturbed(base, 3)
        b = perturbed(base, 3)
        assert np.array_equal(a.speed_mps, b.speed_mps)

    def test_different_seeds_differ(self, base):
        a = perturbed(base, 0)
        b = perturbed(base, 1)
        min_len = min(len(a), len(b))
        assert not np.array_equal(a.speed_mps[:min_len], b.speed_mps[:min_len])

    def test_name_tagged(self, base):
        assert perturbed(base, 7).name == "UDDS~7"

    def test_invariants_preserved(self, base):
        for seed in range(5):
            var = perturbed(base, seed)
            assert isinstance(var, DriveCycle)
            assert np.all(var.speed_mps >= 0.0)
            assert var.speed_mps[0] == 0.0
            assert var.speed_mps[-1] == 0.0

    def test_acceleration_capped(self, base):
        var = perturbed(base, 2, max_accel_ms2=4.0)
        steps = np.abs(np.diff(var.speed_mps))
        assert np.max(steps) <= 4.0 * var.dt + 1e-9

    def test_gross_statistics_close_to_base(self, base):
        base_stats = base.stats()
        for seed in range(4):
            var_stats = perturbed(base, seed).stats()
            assert var_stats.distance_km == pytest.approx(
                base_stats.distance_km, rel=0.20
            )
            assert var_stats.duration_s == pytest.approx(
                base_stats.duration_s, rel=0.15
            )

    def test_zero_sigmas_still_valid(self, base):
        var = perturbed(
            base, 0, speed_scale_sigma=0.0, stop_jitter_s=0.0, ripple_sigma_mps=0.0
        )
        # stop jitter off, scale off, ripple off -> essentially the base;
        # only crawl samples below the stop threshold (0.3 m/s) may be
        # snapped to zero by the stop-segment rebuild
        assert len(var) == len(base)
        assert np.allclose(var.speed_mps, base.speed_mps, atol=0.35)

    def test_rejects_bad_sigma(self, base):
        with pytest.raises(ValueError):
            perturbed(base, 0, speed_scale_sigma=0.9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), "4"])
    def test_rejects_bad_accel_cap(self, base, bad):
        # 0 used to flatten the route to all zeros, NaN to skip the cap
        with pytest.raises(ValueError, match="max_accel_ms2"):
            perturbed(base, 0, max_accel_ms2=bad)

    def test_powertrain_accepts_variants(self, base):
        from repro.vehicle.powertrain import Powertrain

        pr = Powertrain().power_request(perturbed(base, 1))
        assert np.all(np.isfinite(pr.power_w))


#: Seeds of the golden digests below.
GOLDEN_SEEDS = (0, 1, 7, 123456)

#: sha256 of ``speed_mps.tobytes() + name`` of ``perturbed(get_cycle(c), s)``
#: per built-in cycle, one digest per seed of :data:`GOLDEN_SEEDS`, with
#: default options; recorded before the segmentation and cap loops moved
#: onto plain floats.  Any change to the rng draw order, the stop rebuild
#: or the cap passes moves a digest.
GOLDEN = {
    "artemis_urban": (
        "20220fa06f6e4e2694d71b89934fe6e0b0f241cced2965c03be723888a02fe3e",
        "c379bce234f1cfa1a7164cebbab11be24b2bfc5d7b622fad1b77e11e95389939",
        "cbaf4452bc114b5d4072960e097ea67a836a8360735e95e25fa524ef63d3f387",
        "4d7b11dadacfd2851226d21bd12de5fc9bc6a092d711c6ae9ec184ab81445ca4",
    ),
    "hwfet": (
        "4ed18e793fd44ce24bc33b71c6ab5a3187cc32cee2123d908144f76f4e3903dc",
        "981fefbe50e96a91f29a8cc28a3752d17a695a5f6a38978a61131895256458bf",
        "8c1cbb03e3cf33afd0de0ebaef0910dbc14e252a0399208e1cffdb287f54ed55",
        "104de09907080c9deb821ae0670391cead5b394982d6e5065da6106896c8b922",
    ),
    "jc08": (
        "b3db4952cd0f6e9366e8a1aa1fef276417de017f9bd024c6043fd2d45c2f8cc9",
        "f19b8503f7f1b477e9037867547c85855a852cba2b4e3ba545a3f678a09d3e74",
        "016b194b7ddecfe0bc1a0038f385aee94aea79a4b2a1a9ddac3b177bd8526062",
        "f06b8fa7a9e8f1d77eacf58a7fe9e452377c04597a0c0011182c9204f701dff8",
    ),
    "la92": (
        "70c994396f56219c2a3d5ceb211efb68480d37ccd999ece6a01a43a00f246489",
        "e2bc788f44b9ac0003ada745b4f424437eda92bf13f8c8f75afb668509569906",
        "989d43e6b04b3fe22e13d774a166283c515a7e4cffc8d9dcd8855c65abc868a1",
        "1f1b219bf52857aece2f73ee7c374934ee3964c11cc2e4828e0731961504ffce",
    ),
    "nycc": (
        "186d6a4ac897c71f3ab581c206cdb137c94f9dd2f339eb0983e8f72258f0ccf5",
        "73c19d16b0234dbc5d2411140b3fac5b0437f7664724a9eba582a8a49c486df3",
        "f7790d8187f1903dc179b7c410bf2ee82cc0e8f1bbe02bb9df5a85d625646407",
        "ffe2892bda83dda72b628676d1156cb807a183bc70780a4ed6f7742a788393a6",
    ),
    "udds": (
        "3ba9bf6b42c17e845bf18bec85067b3e7dd7b39d4e8d8be5907a781575d1f8b1",
        "255f144de65c64dd081ad355bece74e40d365fc5a916b20799da011deb3438ac",
        "3d8eaaf946c54f683a4a5da4b2d986c5ccb94a801fe570858570ba67584d9ee8",
        "2c34c46593fd928404202098c60ffc5c2a4c60c8b2f7a87e9aedb518fe9c2770",
    ),
    "us06": (
        "74721ed42fe7a8044065431eedce16103822596a63084d6f3917ae87e904d474",
        "2640e10884016a35dd3e79d7817d9073d2263832483c756021fdf1610b524e5a",
        "0f08f00477bd2fac1612c7a1188d43b1a80d11f4b0480c2210d14f7a0738e3a3",
        "847f54bff34124557d519acbb101245ab7fdc8eecd2b611261c02784bf73a576",
    ),
    "wltc3": (
        "bb4ee4d77175c94e79073eb50bf5040f85d5f6d2b3ad2a116fdb5b9f41cdbc1a",
        "c98c84161c04de08f32ae0c3d0199f65020302ef93121a1e7204dcaf9f31137d",
        "0d8d0547da900bcd792e9acb8d2b18f0ee93bfcbb6e81febdf4d0ad5aa4fb537",
        "54db22f7eb8b05a2928d1352fc93421c68fa5cb52877d8699021090338f6b102",
    ),
}

#: The same digests with ``max_accel_ms2=1.0``: the default 4 m/s^2 cap
#: never binds on the built-in cycles (their perturbed routes peak below
#: 3.2 m/s^2), so only a binding cap pins the two cap passes.
GOLDEN_TIGHT_CAP = {
    "artemis_urban": (
        "9c9061b4bb330fe5812f4e5ba2aa0568d1618cc783c5694dfe3f0ff156bd9b75",
        "121dc2c102805f64736a0a20d5ee659521491bc3f8aa2379c7724957346a1a9f",
        "0c7277de9d5daae2412d673e85b1061f119cd7cf3f0936bdfaca95535ebe0cc3",
        "9975f3b29a614de7d2be9daac1226b93c9fa470bff6b04138ed6d5dc191c4d2c",
    ),
    "hwfet": (
        "733fe0cfc89b5ee7cc5bd58556510dc8634c7fdbd78c0d5527d1009651716e51",
        "e344de2f3ce7f61f21579a14ba71d9d3aec080a52d3a9273e1721a56eaebcd42",
        "a1266bd0beab41ec76d872c442c67dca5aa4e6cb1c81f49d44b674fc01028c7e",
        "7d5e363b31e03a1195d10c6c774398667aedf43242394613902da7c902582f6f",
    ),
    "jc08": (
        "2accf3e804d43e2fb83f6ed5e1dd483967748c5ac324552ba28a9eced9ab7056",
        "9a986d1c24ea48162c41770f21716e3196861f9f5829925741d1651deb350f6e",
        "f5c72a4b98791ebb7dea2e8fb9e1f24b5c8697945c1e17f21b8ef58af5e10b09",
        "68a907f8bb0ac5ed27951270bb6cbc87132389ad3d738c180a59596f89bae9fc",
    ),
    "la92": (
        "59cfc53f13249188af3b893083861c35e5d414eca654807ffc5aeb43496ef805",
        "4ebf369803cb7485ae007d2c2b3aecffb37ed1e3de9cb0d2c35cf1a00dfd0b17",
        "bb2e67bdba5b59366550d8fcf732eb15e6b47703fd85bb17c005031fb96f4761",
        "28a2b822dd7c9981a6b3e3bc30cd6ea4ca2737439b5e07ad682dd2f4455a0a4d",
    ),
    "nycc": (
        "1826675b88a0df1b0f8b6bded43a8878bca3eac66d7dd12c9325b5844d5bf399",
        "2214885683817e35f01201bbf5b49c495aa63df0720d2aee05102f72d0ec074f",
        "3c0d9b3258e8f325c1c4718f99594ead0b7f0287293575a43dd83b88f5c3c0f6",
        "cee994aabedcc5c482a4fa51a60b4087836ef520212b23cf2176213a47964e05",
    ),
    "udds": (
        "d27f53525f51f125420753985fec074b2430f6313e333122ab2d3e8d619bf491",
        "519fbca1f1b36db04f74c3682a51c5fa5a5536566b0e605b2af367669fa44f23",
        "ff6d77e0b6eca815c5fc4dcab8defe878c11341636b1d7b81b104973db7aae01",
        "aeea7c96d1ac4cc192a33e6797bd0a3d83a853a084a452110f0a28e568aad427",
    ),
    "us06": (
        "8aaf546b13cf29dfc5ea0ba078b6822f48d06635dc5c98d6f00485c45a6377a8",
        "7cd4b3f289e56bdee80abe2bc4d9882ec6196a1b00404ddc825936b114a1f18f",
        "3b8d671fe3f34307af3ac32df8bb8cbf993735a1f43a748380df3b280c2c246d",
        "a70e316e1d4df477d5818de38d4eb6a801a58247306c6c9b1788ccbfcb299622",
    ),
    "wltc3": (
        "03b87896450ae9d9b51a00aa938fc00b2512b7c2d1123d72d056c051751abb6a",
        "c3ae9c5e152623894d9ceb731fc291e868a572ef3e494f8ec8512122205d66e9",
        "0c245f96b90e07b5e424fb50b5102498e3f08a65d6f31576a4a67540bccc02fe",
        "650a23947f1a01c196b873220f82012285893b5447ff1225911a141829658dae",
    ),
}


class TestGolden:
    def test_covers_every_built_in_cycle(self):
        assert set(GOLDEN) == set(GOLDEN_TIGHT_CAP) == set(available_cycles())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    @pytest.mark.parametrize(
        "max_accel_ms2, golden", [(4.0, GOLDEN), (1.0, GOLDEN_TIGHT_CAP)]
    )
    def test_bitwise_pinned(self, name, max_accel_ms2, golden):
        base = get_cycle(name)
        digests = []
        for seed in GOLDEN_SEEDS:
            var = perturbed(base, seed, max_accel_ms2=max_accel_ms2)
            digest = hashlib.sha256(var.speed_mps.tobytes() + var.name.encode())
            digests.append(digest.hexdigest())
        assert tuple(digests) == golden[name]
