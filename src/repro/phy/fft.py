"""Fixed-point radix-4 64-point (I)FFT with per-stage block scaling.

The ``fft`` kernel of Table 2 runs twice per symbol pair (one FFT per
receive antenna).  The fixed-point algorithm here is a decimation-in-time
radix-4 butterfly network: 64 = 4^3, so three stages.  Every stage
scales by ``>> 2``, split over its two adder levels (``>> 1`` each), which
keeps all intermediates inside Q15 for full-scale inputs; the output is
the DFT divided by N.

One radix-4 butterfly on (a, b, c, d) with twiddled ``x' = x * W``::

    t0, t1 = sat(a + c') >> 1, sat(a - c') >> 1
    t2, t3 = sat(b' + d') >> 1, sat(b' - d') >> 1
    u      = -j * t3                      # (im, -re): swap16, then negb
    y0, y2 = sat(t0 + t2) >> 1, sat(t0 - t2) >> 1
    y1, y3 = sat(t1 + u) >> 1,  sat(t1 - u) >> 1     # forward

Twiddle factors are Q15; butterflies use the exact ISA complex-multiply
rounding so the mapped kernels match this model bit for bit.  The first
stage does no multiply: all its twiddles are W^0.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.phy.fixed import cmul_q15, q15


def _log4(n: int) -> int:
    """Number of radix-4 stages of an *n*-point transform."""
    if n < 4 or n & (n - 1) or (n.bit_length() - 1) % 2:
        raise ValueError("FFT length must be a power of four >= 4")
    return (n.bit_length() - 1) // 2


def digit_reverse_indices(n: int) -> np.ndarray:
    """Base-4 digit-reversed index permutation for a power-of-four *n*."""
    digits = _log4(n)
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for d in range(digits):
        rev |= ((idx >> (2 * d)) & 3) << (2 * (digits - 1 - d))
    return rev


def twiddles_q15(n: int, inverse: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Q15 twiddle factor tables (re, im) for W_n^k, k = 0..3n/4-1."""
    k = np.arange(3 * n // 4)
    sign = 1.0 if inverse else -1.0
    w = np.exp(sign * 2j * np.pi * k / n)
    # cos(0)=1 saturates to 32767/32768: acceptable (half-LSB error).
    return q15(w.real), q15(w.imag)


def _sat(v: np.ndarray) -> np.ndarray:
    """The saturating 16-bit SIMD adder's output (int32 in, int32 out)."""
    return np.clip(v, -32768, 32767)


def fft_fixed(
    re: np.ndarray, im: np.ndarray, inverse: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """In-order radix-4 DIT FFT on Q15 arrays; output scaled by 1/N.

    Parameters are int16 arrays of a power-of-four length; returns new
    int16 arrays.  The transform computes ``DFT(x)/N`` (or ``IDFT(x)/N``
    with ``inverse=True``), the scaling being applied as ``>> 2`` per
    stage.
    """
    re = np.asarray(re, dtype=np.int16)
    im = np.asarray(im, dtype=np.int16)
    n = len(re)
    _log4(n)
    if len(im) != n:
        raise ValueError("re/im length mismatch")
    rev = digit_reverse_indices(n)
    re, im = re[rev], im[rev]
    tw_re, tw_im = twiddles_q15(n, inverse)
    q = 1
    while q < n:
        # Group g, leg k, offset j sits at g*4q + k*q + j.
        xr = re.reshape(-1, 4, q)
        xi = im.reshape(-1, 4, q)
        legs = [(xr[:, k, :], xi[:, k, :]) for k in range(4)]
        if q > 1:
            j = np.arange(q) * (n // (4 * q))
            legs[1:] = [
                cmul_q15(lr, li, tw_re[k * j], tw_im[k * j])
                for k, (lr, li) in enumerate(legs[1:], start=1)
            ]
        (ar, ai), (br, bi), (cr, ci), (dr, di) = [
            (lr.astype(np.int32), li.astype(np.int32)) for lr, li in legs
        ]
        t0r, t0i = _sat(ar + cr) >> 1, _sat(ai + ci) >> 1
        t1r, t1i = _sat(ar - cr) >> 1, _sat(ai - ci) >> 1
        t2r, t2i = _sat(br + dr) >> 1, _sat(bi + di) >> 1
        t3r, t3i = _sat(br - dr) >> 1, _sat(bi - di) >> 1
        ur, ui = t3i, _sat(-t3r)  # -j * t3
        plus = (_sat(t1r + ur) >> 1, _sat(t1i + ui) >> 1)
        minus = (_sat(t1r - ur) >> 1, _sat(t1i - ui) >> 1)
        y1, y3 = (minus, plus) if inverse else (plus, minus)
        out_r = np.stack([_sat(t0r + t2r) >> 1, y1[0], _sat(t0r - t2r) >> 1, y3[0]], axis=1)
        out_i = np.stack([_sat(t0i + t2i) >> 1, y1[1], _sat(t0i - t2i) >> 1, y3[1]], axis=1)
        re = out_r.astype(np.int16).reshape(n)
        im = out_i.astype(np.int16).reshape(n)
        q *= 4
    return re, im


def ifft_fixed(re: np.ndarray, im: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse transform: ``IDFT(x)/N`` (so ``ifft(fft(x)) == x/N^2``...

    Note the deliberate asymmetry: like the hardware kernel, each call
    scales by 1/N; a TX IFFT followed by an RX FFT therefore returns the
    constellation scaled by 1/N^2 relative to unitary conventions, and
    the receive chain compensates digitally (the ``comp`` kernel).
    """
    return fft_fixed(re, im, inverse=True)


def fft_float(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Floating-point reference with the same 1/N scaling convention."""
    x = np.asarray(x, dtype=np.complex128)
    if inverse:
        return np.fft.ifft(x)  # numpy ifft already divides by N
    return np.fft.fft(x) / len(x)
