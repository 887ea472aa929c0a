"""Geometry metric (long-term downlink SINR) and empirical CDF statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True, eq=False)  # array field: compare it with np.array_equal
class CdfSeries:
    """Sorted empirical distribution with percentile and fraction queries."""

    samples: np.ndarray  # ascending, float64

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def fraction_below(self, x: float) -> float:
        """Fraction of samples <= x."""
        return float(np.searchsorted(self.samples, x, side="right")) / self.n

    def percentile(self, p: float) -> float:
        """Smallest sample s with fraction_below(s) >= p, for p in [0, 1]."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        idx = max(math.ceil(p * self.n - 1e-9) - 1, 0)
        return float(self.samples[idx])

    def median(self) -> float:
        return self.percentile(0.5)


def empirical_cdf(samples) -> CdfSeries:
    """Build a CdfSeries from an iterable of dB values."""
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("empirical CDF needs at least one sample")
    return CdfSeries(samples=arr)


def geometry_metric(p_rx_dbm, serving, noise_total_dbm: float):
    """Long-term downlink SINR per station, in dB.

    Parameters
    ----------
    p_rx_dbm : (..., n_sectors) received powers in dBm from every sector
        (-inf marks an absent contribution).
    serving : serving sector index (int, or int array matching the
        leading dimensions).
    noise_total_dbm : total noise power in dBm.

    Returns
    -------
    10*log10(serving power / (noise + sum of all other sectors' powers)),
    with linear quantities in mW.
    """
    p = np.atleast_2d(np.asarray(p_rx_dbm, dtype=float))
    if p.shape[-1] < 2:
        raise RuntimeError("geometry metric needs at least 2 links per station")
    serv = np.asarray(serving, dtype=int).reshape(p.shape[:-1])
    lin = p / 10.0  # a fresh array, worked in place from here on
    # a one-row base, not the scalar 10: numpy's SIMD power loop then reads
    # both operands at unit stride, with the same bits
    np.power(np.full(lin.shape[-1], 10.0), lin, out=lin)
    # direct fancy indexing: take/put_along_axis build their index in Python
    at_serving = (*np.indices(serv.shape, sparse=True), serv)
    serving_lin = lin[at_serving]
    lin[at_serving] = 0.0
    interference = lin.sum(axis=-1)
    # a numpy scalar power: Python's bits, but inf, not an OverflowError, past the range
    noise_lin = np.float64(10.0) ** (noise_total_dbm / 10.0)
    gm = 10.0 * np.log10(serving_lin / (noise_lin + interference))
    return float(gm[0]) if np.ndim(p_rx_dbm) == 1 else gm
