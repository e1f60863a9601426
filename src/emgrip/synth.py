"""Synthetic EMG/grip recordings with a known envelope-force coupling.

The grip profile steps through a sequence of plateau levels with smooth
cosine ramps; the EMG channel is band-limited noise amplitude-modulated by
a delayed copy of that profile, plus mains interference and low-frequency
drift.  The modulation makes the envelope recoverable by the processing
chain, so every stage of the pipeline can be exercised and checked against
the generating profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .io import Recording
from .processing import GRIP_FS, NOMINAL_EMG_FS, TimestampedSeries


@dataclass(frozen=True)
class SynthProfile:
    """Shape of one synthetic run.

    ``levels`` are plateau fractions of ``max_force_n``; the grip trace is
    lead-in rest, then ramp + plateau per level.  ``noise_snr`` is the ratio
    of the full-force EMG amplitude to the zero-force noise floor.
    """

    levels: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25, 0.0)
    plateau_s: float = 4.0
    ramp_s: float = 1.5
    lead_s: float = 2.0
    max_force_n: float = 120.0
    emg_lag_s: float = 0.05
    noise_snr: float = 8.0
    mains_amplitude: float = 0.06
    drift_amplitude: float = 0.04
    emg_fs: float = NOMINAL_EMG_FS
    grip_fs: float = GRIP_FS

    def __post_init__(self):
        if self.plateau_s <= 0 or self.ramp_s <= 0 or self.lead_s < 0:
            raise ConfigError("durations must be positive")
        if any(not 0.0 <= lv <= 1.0 for lv in self.levels):
            raise ConfigError("levels must lie in [0, 1]")
        if self.max_force_n < 0:
            raise ConfigError("max force must be >= 0")
        if not self.noise_snr > 0:
            raise ConfigError("noise SNR must be positive")

    @property
    def duration_s(self) -> float:
        return self.lead_s + len(self.levels) * (self.ramp_s + self.plateau_s)


# grip_profile works through its times in blocks of this many, so that no
# temporary outgrows 256 KB: full-length ones made it 2x slower on a 16x
# recording, and the heap they grew slowed a later stream on it by ~10%
_PROFILE_BLOCK = 1 << 15


def grip_profile(profile: SynthProfile, t: np.ndarray) -> np.ndarray:
    """Normalised force profile (0..1) at times ``t`` seconds.

    Rest until ``lead_s``, then per level a cosine ramp from the previous
    level and a plateau, then the last level held.  Each time's segment is
    found by ``searchsorted`` on the segment edges, which are accumulated
    ramp by plateau from ``lead_s``; the cost grows with ``len(t)`` and only
    logarithmically with the number of levels.
    """
    t = np.asarray(t, dtype=float)
    edges = [profile.lead_s]
    for _ in profile.levels:
        edges.append(edges[-1] + profile.ramp_s)
        edges.append(edges[-1] + profile.plateau_s)
    edges = np.array(edges, dtype=float)
    # held[k] is the force before level k's ramp and after level k - 1's
    held = np.concatenate(([0.0], np.asarray(profile.levels, dtype=float)))
    flat = t.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _PROFILE_BLOCK):
        tb = flat[lo : lo + _PROFILE_BLOCK]
        ob = out[lo : lo + _PROFILE_BLOCK]
        # segment 2k is level k's ramp and 2k + 1 its plateau; -1 is the lead-in
        seg = np.searchsorted(edges, tb, side="right") - 1
        ob[:] = held[(seg + 1) >> 1]
        ramp = ((seg & 1) == 0) & (seg < 2 * len(profile.levels))
        k = seg[ramp] >> 1
        u = (tb[ramp] - edges[2 * k]) / profile.ramp_s
        ob[ramp] = held[k] + (held[k + 1] - held[k]) * 0.5 * (1.0 - np.cos(np.pi * u))
    return out.reshape(t.shape)


def _bandlimited_noise(rng: np.random.Generator, n: int, fs: float,
                       lo_hz: float = 20.0, hi_hz: float = 200.0) -> np.ndarray:
    """Unit-variance Gaussian noise restricted to [lo_hz, hi_hz]."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / fs)
    spectrum[(f < lo_hz) | (f > hi_hz)] = 0.0
    x = np.fft.irfft(spectrum, n=n)
    sd = x.std()
    return x / sd if sd > 0 else x


def synth_recording(
    profile: SynthProfile = SynthProfile(),
    seed=0,
    subject: str = "s01",
    position: int = 1,
    replication: int = 1,
) -> Recording:
    """Generate one deterministic recording for the given seed."""
    rng = np.random.default_rng(seed)
    duration = profile.duration_s

    n_grip = int(round(duration * profile.grip_fs))
    t_grip = np.arange(n_grip) / profile.grip_fs
    grip = profile.max_force_n * grip_profile(profile, t_grip)

    n_emg = int(round(duration * profile.emg_fs))
    t_emg = np.arange(n_emg) / profile.emg_fs
    # activation follows the exerted force; no force, no modulation
    scale = 1.0 if profile.max_force_n > 0 else 0.0
    modulation = scale * grip_profile(profile, t_emg - profile.emg_lag_s)
    noise = _bandlimited_noise(rng, n_emg, profile.emg_fs)
    mains_phase, drift_phase = rng.uniform(0, 2 * np.pi, size=2)
    floor = 1.0 / profile.noise_snr
    emg = (
        (floor + modulation) * noise
        + profile.mains_amplitude * np.sin(2 * np.pi * 50.0 * t_emg + mains_phase)
        + profile.drift_amplitude * np.sin(2 * np.pi * 0.3 * t_emg + drift_phase)
    )
    return Recording(
        TimestampedSeries(t_emg, emg),
        TimestampedSeries(t_grip, grip),
        subject=subject,
        position=position,
        replication=replication,
    )


def synth_corpus(
    seed=0,
    subjects: int = 1,
    positions: int = 2,
    replications: int = 1,
    profile: SynthProfile = SynthProfile(),
):
    """Calibration + test recordings for a small experiment layout.

    Returns (calibrations, runs): one calibration recording per subject and
    one run per (subject, position, replication), all with independent
    deterministic seeds spawned from ``seed``.
    """
    if min(subjects, positions, replications) < 0:
        raise ConfigError("subject, position and replication counts must be >= 0")
    root = np.random.SeedSequence(seed)
    n_runs = subjects * (1 + positions * replications)
    children = root.spawn(n_runs)
    it = iter(children)
    calibrations = []
    runs = []
    for s in range(subjects):
        label = f"s{s + 1:02d}"
        calibrations.append(
            synth_recording(profile, next(it), subject=label, position=0, replication=0)
        )
        for p in range(1, positions + 1):
            for r in range(1, replications + 1):
                runs.append(
                    synth_recording(profile, next(it), subject=label, position=p, replication=r)
                )
    return calibrations, runs
