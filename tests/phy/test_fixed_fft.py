"""Fixed-point helpers and FFT tests against NumPy golden."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.semantics import q15_mul
from repro.phy.fixed import (
    cmul_q15,
    complex_from_q15,
    from_q15,
    pack_complex_array,
    pack_complex_pair,
    q15,
    q15_mul_array,
    quantize_complex,
    unpack_complex_array,
    unpack_complex_pair,
)
from repro.phy.fft import digit_reverse_indices, fft_fixed, fft_float, ifft_fixed

i16 = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)


def test_q15_roundtrip():
    values = np.array([0.0, 0.5, -0.5, 0.999, -1.0])
    assert np.allclose(from_q15(q15(values)), values, atol=1 / (1 << 15))


def test_q15_saturates():
    assert q15(2.0) == (1 << 15) - 1
    assert q15(-2.0) == -(1 << 15)


@given(i16, i16)
def test_q15_mul_array_matches_isa(a, b):
    arr = q15_mul_array(np.array([a], dtype=np.int16), np.array([b], dtype=np.int16))
    assert int(arr[0]) == q15_mul(a, b)


@given(i16, i16, i16, i16)
def test_cmul_q15_matches_complex_product(ar, ai, br, bi):
    re, im = cmul_q15(
        np.int16(ar), np.int16(ai), np.int16(br), np.int16(bi)
    )
    def sat16(v):
        return max(-(1 << 15), min((1 << 15) - 1, v))

    ref_re = sat16(q15_mul(ar, br) - q15_mul(ai, bi))
    ref_im = sat16(q15_mul(ar, bi) + q15_mul(ai, br))
    assert int(re) == ref_re
    assert int(im) == ref_im


@given(st.lists(st.tuples(i16, i16), min_size=2, max_size=16).filter(lambda l: len(l) % 2 == 0))
def test_pack_unpack_complex_array_roundtrip(samples):
    re = [s[0] for s in samples]
    im = [s[1] for s in samples]
    words = pack_complex_array(re, im)
    re2, im2 = unpack_complex_array(words)
    assert list(re2) == re and list(im2) == im


def test_pack_complex_pair_layout():
    word = pack_complex_pair(1, 2, 3, 4)
    assert unpack_complex_pair(word) == (1, 2, 3, 4)
    assert word & 0xFFFF == 1  # re0 in the least-significant lane


def test_odd_length_pack_rejected():
    with pytest.raises(ValueError):
        pack_complex_array([1], [2])


def test_digit_reverse_indices_16():
    assert list(digit_reverse_indices(16)) == [
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
    ]


def test_digit_reverse_indices_64_is_an_involution():
    rev = digit_reverse_indices(64)
    assert list(rev[rev]) == list(range(64))
    assert rev[1] == 16 and rev[2] == 32 and rev[4] == 4 and rev[63] == 63


@pytest.mark.parametrize("n", [4, 16, 64])
def test_fft_fixed_matches_float_reference(n):
    rng = np.random.default_rng(42)
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.2
    re, im = quantize_complex(x)
    out_re, out_im = fft_fixed(re, im)
    ref = fft_float(x)
    got = complex_from_q15(out_re, out_im)
    # Block scaling costs ~log2(n)/2 bits; tolerance reflects that.
    assert np.max(np.abs(got - ref)) < 0.01


def test_fft_fixed_impulse():
    n = 64
    re = np.zeros(n, dtype=np.int16)
    im = np.zeros(n, dtype=np.int16)
    re[0] = q15(0.9)
    out_re, out_im = fft_fixed(re, im)
    # DFT of impulse is flat: 0.9/64 per bin.
    expected = 0.9 / 64
    assert np.allclose(from_q15(out_re), expected, atol=2e-3)
    assert np.allclose(from_q15(out_im), 0, atol=2e-3)


def test_fft_fixed_single_tone():
    n = 64
    k0 = 5
    t = np.arange(n)
    x = 0.5 * np.exp(2j * np.pi * k0 * t / n)
    re, im = quantize_complex(x)
    out_re, out_im = fft_fixed(re, im)
    got = complex_from_q15(out_re, out_im)
    assert abs(got[k0] - 0.5) < 0.01
    others = np.delete(np.abs(got), k0)
    assert np.max(others) < 0.01


def test_ifft_then_fft_recovers_scaled_input():
    n = 64
    rng = np.random.default_rng(3)
    x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.3
    ref = fft_float(fft_float(x, inverse=True))
    got_re, got_im = fft_fixed(*ifft_fixed(*quantize_complex(x)))
    got = complex_from_q15(got_re, got_im)
    # Both scale by 1/N twice: x / N^2 ... compare against float chain.
    assert np.max(np.abs(got - ref)) < 2e-3


def test_fft_rejects_bad_lengths():
    with pytest.raises(ValueError):
        fft_fixed(np.zeros(12, dtype=np.int16), np.zeros(12, dtype=np.int16))
    with pytest.raises(ValueError, match="power of four"):
        fft_fixed(np.zeros(8, dtype=np.int16), np.zeros(8, dtype=np.int16))
    with pytest.raises(ValueError):
        fft_fixed(np.zeros(16, dtype=np.int16), np.zeros(4, dtype=np.int16))


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=63))
def test_fft_linearity_on_basis(k):
    """FFT of e_k impulse = k-th DFT column / N (within quantisation)."""
    n = 64
    re = np.zeros(n, dtype=np.int16)
    im = np.zeros(n, dtype=np.int16)
    re[k] = q15(0.5)
    out_re, out_im = fft_fixed(re, im)
    got = complex_from_q15(out_re, out_im)
    ref = 0.5 * np.exp(-2j * np.pi * k * np.arange(n) / n) / n
    assert np.max(np.abs(got - ref)) < 5e-3


# ----------------------------------------------------------------------
# Radix-4 vs radix-2 accuracy.  The radix-2 network below is the
# receiver's former FFT, kept here only as the accuracy baseline: one
# ``>> 1`` per stage, W^0 multiplied like every other twiddle.
# ----------------------------------------------------------------------


def radix2_fft_fixed(re, im):
    """Q15 radix-2 DIT FFT (bit-reversed input), output scaled by 1/N."""
    n = len(re)
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    re, im = np.asarray(re, np.int16)[rev], np.asarray(im, np.int16)[rev]
    w = np.exp(-2j * np.pi * np.arange(n // 2) / n)
    tw_re, tw_im = q15(w.real), q15(w.imag)
    half = 1
    while half < n:
        xr, xi = re.reshape(-1, 2, half), im.reshape(-1, 2, half)
        j = np.arange(half) * (n // (2 * half))
        br, bi = cmul_q15(xr[:, 1, :], xi[:, 1, :], tw_re[j], tw_im[j])
        ar, ai = xr[:, 0, :].astype(np.int32), xi[:, 0, :].astype(np.int32)
        br, bi = br.astype(np.int32), bi.astype(np.int32)
        re = np.stack(
            [np.clip(ar + br, -32768, 32767) >> 1, np.clip(ar - br, -32768, 32767) >> 1], 1
        ).astype(np.int16).reshape(n)
        im = np.stack(
            [np.clip(ai + bi, -32768, 32767) >> 1, np.clip(ai - bi, -32768, 32767) >> 1], 1
        ).astype(np.int16).reshape(n)
        half *= 2
    return re, im


def sqnr_db(fft, re, im):
    """SQNR of a fixed-point FFT against the float FFT of the same input."""
    ref = fft_float(complex_from_q15(re, im))
    err = complex_from_q15(*fft(re, im)) - ref
    return 10 * np.log10(np.sum(np.abs(ref) ** 2) / np.sum(np.abs(err) ** 2))


#: Input RMS amplitudes (per real part): from a few LSBs of headroom
#: loss up to where the adders saturate for both networks.
AMPLITUDES = (0.02, 0.05, 0.1, 0.2, 0.35)
#: Allowed per-example SQNR shortfall of radix-4 against radix-2.  Over
#: 10,000 seeded buffers at these amplitudes the worst shortfall was
#: 0.46 dB (median: radix-4 1.1 dB better).
SQNR_DELTA_DB = 1.0


def _buffer(seed, amp):
    rng = np.random.default_rng([seed, 9])
    return quantize_complex(amp * (rng.normal(size=64) + 1j * rng.normal(size=64)))


def test_radix2_baseline_matches_float_reference():
    re, im = _buffer(0, 0.2)
    got = complex_from_q15(*radix2_fft_fixed(re, im))
    assert np.max(np.abs(got - fft_float(complex_from_q15(re, im)))) < 0.01


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(AMPLITUDES))
def test_radix4_sqnr_no_worse_than_radix2(seed, amp):
    re, im = _buffer(seed, amp)
    assert sqnr_db(fft_fixed, re, im) >= sqnr_db(radix2_fft_fixed, re, im) - SQNR_DELTA_DB


@pytest.mark.parametrize("amp", AMPLITUDES)
def test_radix4_median_sqnr_at_least_radix2(amp):
    r4 = [sqnr_db(fft_fixed, *_buffer(seed, amp)) for seed in range(40)]
    r2 = [sqnr_db(radix2_fft_fixed, *_buffer(seed, amp)) for seed in range(40)]
    assert np.median(r4) >= np.median(r2)
