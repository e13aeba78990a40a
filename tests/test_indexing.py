import numpy as np
import pytest

from ttembed.indexing import MixedRadix


def test_strides():
    assert MixedRadix((2, 3, 4)).capacity == 24


def test_zero_maps_to_zero_digits():
    assert MixedRadix((2, 3, 4)).to_multi(0) == (0, 0, 0)


def test_hand_traced_case():
    # place values (1, 2, 6): 17 = 1*1 + 2*2 + 2*6
    r = MixedRadix((2, 3, 4))
    assert r.to_multi(17) == (1, 2, 2)
    assert r.from_multi((1, 2, 2)) == 17


def test_maximal_index():
    r = MixedRadix((2, 3, 4))
    assert r.to_multi(23) == (1, 2, 3)


def test_single_factor_is_identity():
    r = MixedRadix((5,))
    assert r.to_multi(3) == (3,)
    assert r.from_multi((3,)) == 3


def test_out_of_range():
    r = MixedRadix((2, 3))
    with pytest.raises(IndexError):
        r.to_multi(6)
    with pytest.raises(IndexError):
        r.to_multi(-1)
    with pytest.raises(IndexError):
        r.from_multi((2, 0))


def test_out_of_range_batch_names_first_bad_index():
    r = MixedRadix((2, 3))
    ids = np.arange(4096)
    ids[:4] = [5, 0, 9, -3]
    with pytest.raises(IndexError) as exc:
        r.to_multi(ids)
    assert str(exc.value) == "index 9 out of range [0, 6)"


def test_bad_factors():
    with pytest.raises(ValueError):
        MixedRadix((2, 0))
    with pytest.raises(ValueError):
        MixedRadix(())


def test_roundtrip_exhaustive():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        factors = tuple(int(rng.integers(1, 11)) for _ in range(n))
        r = MixedRadix(factors)
        if r.capacity > 10_000:
            continue
        seen = set()
        for i in range(r.capacity):
            multi = r.to_multi(i)
            assert all(0 <= d < f for d, f in zip(multi, factors))
            assert r.from_multi(multi) == i
            seen.add(multi)
        assert len(seen) == r.capacity  # bijection: no duplicates


def test_successor_is_mixed_radix_increment():
    r = MixedRadix((3, 2, 4))

    def successor(digits):
        out = list(digits)
        for k, f in enumerate(r.factors):
            out[k] += 1
            if out[k] < f:
                return tuple(out)
            out[k] = 0
        raise AssertionError("overflow")

    for i in range(r.capacity - 1):
        assert r.to_multi(i + 1) == successor(r.to_multi(i))
