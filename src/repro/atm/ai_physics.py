"""The AI-powered, resolution-adaptive physics suite (§5.2.1, Fig. 4).

Three modules, exactly as the paper describes:

* **AI tendency module** — the 11-layer, 5-ResUnit 1-D CNN (~5x10^5
  parameters) mapping (U, V, T, Q, P) columns to (dU, dV, dT, dQ)
  tendencies;
* **AI radiation diagnosis module** — the 7-layer residual MLP taking the
  column plus ``tskin`` and ``coszr`` and producing the surface downward
  shortwave/longwave fluxes (gsw, glw) "which serve as inputs to the land
  surface model and surface layer scheme";
* **conventional physics diagnostic module** — precipitation and cloud
  fraction are still diagnosed conventionally from the (AI-updated) state.

Training follows the paper's protocol: the supervision is the
*conventional suite evaluated on high-resolution model states* (our
substitution for the 5 km GRIST archive — see DESIGN.md), 80 days with 20
per season, 7:1 day split, 3 random validation steps per training day.
Because the CNN convolves along the column, the trained suite runs on any
vertical/horizontal resolution — the "resolution-adaptive" property.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..ai import (
    Normalizer, Trainer, build_radiation_mlp, build_tendency_cnn, load_state_dict, split_by_days,
    state_dict,
)
from ..precision import Precision
from ..utils.rng import seeded
from .columns import ColumnState, pressure_levels, reference_profiles
from .physics import ConventionalPhysics, PhysicsTendencies

__all__ = ["AIPhysicsSuite", "generate_training_archive", "harvest_archive_from_model", "synthetic_columns"]


def synthetic_columns(
    ncol: int,
    nlev: int,
    season: int,
    step: int,
    seed: int = 0,
) -> ColumnState:
    """A batch of diverse, weather-like columns for one (season, step).

    Seasonal cycle enters through the solar geometry and surface
    temperature distribution; step-level variability through perturbation
    amplitudes.  Deterministic in all arguments.
    """
    rng = seeded("columns", ncol, nlev, season, step, seed)
    p = pressure_levels(nlev)
    lat = rng.uniform(-np.pi / 2, np.pi / 2, ncol)
    season_phase = 2.0 * np.pi * season / 4.0
    declination = 0.41 * np.sin(season_phase)
    hour = 2.0 * np.pi * step / 8.0
    coszr = np.clip(
        np.sin(lat) * np.sin(declination)
        + np.cos(lat) * np.cos(declination) * np.cos(hour),
        0.0,
        1.0,
    )
    tsfc = 288.0 + 25.0 * np.cos(lat) ** 2 - 15.0 * np.cos(lat - declination) ** 2
    tskin = tsfc + rng.normal(0.0, 2.0, ncol) + 5.0 * coszr

    t = np.empty((ncol, nlev))
    q = np.empty((ncol, nlev))
    t_ref, q_ref = reference_profiles(p)
    t[:] = t_ref[None, :] + (tsfc[:, None] - 288.0) * (p / p[-1])[None, :]
    t += rng.normal(0.0, 1.5, (ncol, nlev))
    q[:] = q_ref[None, :] * np.exp(0.07 * (tsfc[:, None] - 288.0))
    q *= rng.lognormal(0.0, 0.4, (ncol, nlev))
    q = np.clip(q, 0.0, 0.035)

    shear = rng.normal(0.0, 8.0, (ncol, 1)) * (1.0 - (p / p[-1])[None, :])
    u = rng.normal(5.0, 4.0, (ncol, 1)) + shear + rng.normal(0.0, 1.0, (ncol, nlev))
    v = rng.normal(0.0, 3.0, (ncol, 1)) + rng.normal(0.0, 1.0, (ncol, nlev))
    return ColumnState(u=u, v=v, t=t, q=q, p=p, tskin=tskin, coszr=coszr)


def _radiation_input(state: ColumnState, chan: np.ndarray) -> np.ndarray:
    """The radiation MLP's input: the flattened column, ``tskin``, ``coszr``."""
    flat = chan.reshape(chan.shape[0], -1)
    return np.concatenate([flat, state.tskin[:, None], state.coszr[:, None]], axis=1)


def _archive(columns, physics: Optional[ConventionalPhysics], dt_s: float, n_days: int,
             steps_per_day: int, ncol_per_step: int) -> Dict[str, np.ndarray]:
    """(input, target) pairs of the conventional suite (default parameters
    unless ``physics`` is given) on each of ``columns``, an iterable of
    :class:`ColumnState`, in the archive layout."""
    physics = physics if physics is not None else ConventionalPhysics()
    xs, ys, xr, yr = [], [], [], []
    for cols in columns:
        tend = physics.compute(cols, dt_s)
        chan = cols.as_channels()
        xs.append(chan)
        ys.append(np.stack([tend.du, tend.dv, tend.dt, tend.dq], axis=1))
        xr.append(_radiation_input(cols, chan))
        yr.append(np.stack([tend.gsw, tend.glw], axis=1))
    return {
        "x_column": np.concatenate(xs),
        "y_tendency": np.concatenate(ys),
        "x_radiation": np.concatenate(xr),
        "y_radiation": np.concatenate(yr),
        "n_days": np.array(n_days),
        "steps_per_day": np.array(steps_per_day),
        "ncol_per_step": np.array(ncol_per_step),
    }


def generate_training_archive(
    n_days: int = 80,
    steps_per_day: int = 8,
    ncol_per_step: int = 24,
    nlev: int = 30,
    physics: Optional[ConventionalPhysics] = None,
    dt_s: float = 120.0,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """The training archive: high-resolution conventional-physics pairs.

    Mirrors the paper's corpus: ``n_days`` spanning four seasons (20 each
    by default), several steps per day.  Returns arrays keyed:
    ``x_column`` (N, 5, nlev), ``y_tendency`` (N, 4, nlev),
    ``x_radiation`` (N, 5*nlev + 2), ``y_radiation`` (N, 2), plus the
    (day, step) shape metadata used by the splitter.
    """
    columns = (
        synthetic_columns(ncol_per_step, nlev, (day * 4) // max(n_days, 1), step, seed=seed + day)
        for day in range(n_days)
        for step in range(steps_per_day)
    )
    return _archive(columns, physics, dt_s, n_days, steps_per_day, ncol_per_step)


def harvest_archive_from_model(
    model,
    n_days: int = 4,
    samples_per_day: int = 8,
    ncol_per_sample: int = 32,
    physics: Optional[ConventionalPhysics] = None,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """Training archive harvested from a running model (the paper's actual
    protocol: "the training dataset consists of 5 km GRIST atmospheric
    fields" — i.e. the model's own output supervised by the conventional
    physics).

    ``model`` is an initialized :class:`repro.atm.model.GristModel` running
    the conventional suite; it is advanced in place.  Harvested columns
    carry the model's state distribution, so a suite trained on them stays
    in-distribution at inference — the property the purely synthetic
    archive cannot guarantee.
    """
    rng = seeded("harvest", n_days, samples_per_day, ncol_per_sample, seed)
    steps_per_day = max(1, int(round(86400.0 / model.dt_model)))
    stride = max(1, steps_per_day // samples_per_day)

    def columns():
        for _ in range(n_days * samples_per_day):
            model.run(stride)
            cols = model.current_columns()
            pick = rng.choice(cols.ncol, size=min(ncol_per_sample, cols.ncol), replace=False)
            yield ColumnState(
                u=cols.u[pick], v=cols.v[pick], t=cols.t[pick], q=cols.q[pick],
                p=cols.p, tskin=cols.tskin[pick], coszr=cols.coszr[pick],
            )

    return _archive(columns(), physics, model.dt_model, n_days, samples_per_day,
                    min(ncol_per_sample, model.grid.n_cells))


@dataclass
class AIPhysicsSuite:
    """The trained suite: drop-in replacement for ConventionalPhysics.

    Build with :meth:`train`, then call :meth:`compute` with the same
    signature as the conventional suite.  The conventional *diagnostic*
    module (precipitation, cloud fraction) stays physical, per Fig. 4.
    """

    tendency_trainer: Trainer
    radiation_trainer: Trainer
    diagnostics: ConventionalPhysics = field(default_factory=ConventionalPhysics)
    # Per-channel tendency limits (du, dv, dT, dQ), set at train time to a
    # multiple of the largest |target| seen in training: the standard
    # guard rail when coupling ML parameterizations to a dycore —
    # out-of-distribution columns must not inject unbounded tendencies,
    # but in-distribution predictions must never be clipped.
    tendency_limits: Optional[np.ndarray] = None

    def bind(self, ctx) -> None:
        """Launch the conventional-diagnostics kernels through ``ctx`` —
        the same binding contract as :class:`ConventionalPhysics` — and
        take the nets' compute precision from ``ctx.precision`` (§5.2.3):
        when the policy stores the suite's own input (``atm.t_col``) in
        reduced precision, both forward passes run in fp32.  Under the
        ``fp64`` policy, and unbound, they run in fp64."""
        self.diagnostics.bind(ctx)
        stored = ctx.precision.precision_of("atm.t_col")
        dtype = np.float64 if stored is Precision.FP64 else np.float32
        self.tendency_trainer.dtype = self.radiation_trainer.dtype = dtype

    @staticmethod
    def train(
        archive: Dict[str, np.ndarray],
        epochs: int = 10,
        width: int = 128,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> "AIPhysicsSuite":
        """Train both AI modules on an archive (see
        :func:`generate_training_archive`), using the paper's 7:1 split."""
        n_days = int(archive["n_days"])
        steps_per_day = int(archive["steps_per_day"])
        ncol = int(archive["ncol_per_step"])
        split = split_by_days(n_days, steps_per_day, seed=seed)

        def expand(idx: np.ndarray) -> np.ndarray:
            # Step indices -> sample indices (ncol samples per step).
            return (idx[:, None] * ncol + np.arange(ncol)[None, :]).ravel()

        tr = expand(split.train)
        va = expand(split.validation)

        nlev = archive["x_column"].shape[-1]
        cnn = build_tendency_cnn(levels=nlev, width=width)
        tendency = Trainer(cnn, lr=lr, batch_size=64, seed=seed)
        tendency.fit(
            archive["x_column"][tr],
            archive["y_tendency"][tr],
            epochs=epochs,
            x_val=archive["x_column"][va],
            y_val=archive["y_tendency"][va],
        )

        mlp = build_radiation_mlp(levels=nlev)
        radiation = Trainer(mlp, lr=lr, batch_size=64, seed=seed)
        radiation.fit(
            archive["x_radiation"][tr],
            archive["y_radiation"][tr],
            epochs=epochs,
            x_val=archive["x_radiation"][va],
            y_val=archive["y_radiation"][va],
        )
        # Guard-rail limits: 3x the largest |tendency| in training, per
        # channel (du, dv, dT, dQ).
        limits = 3.0 * np.abs(archive["y_tendency"][tr]).max(axis=(0, 2))
        limits = np.maximum(limits, 1e-12)
        return AIPhysicsSuite(
            tendency_trainer=tendency,
            radiation_trainer=radiation,
            tendency_limits=limits,
        )

    # -- persistence -----------------------------------------------------------

    def save(self, path) -> None:
        """Persist the trained suite (weights + normalizers + limits +
        architecture hyperparameters) as one compressed npz."""
        tend = self.tendency_trainer
        rad = self.radiation_trainer
        if tend.x_norm is None or rad.x_norm is None:
            raise RuntimeError("train the suite before saving it")
        # Architecture metadata to rebuild the nets at load time.
        stem_w = tend.model.parameters()[0].value  # (width, 5, kernel)
        # Radiation input is (5 * levels + 2) features: recover levels.
        n_rad_in = int(rad.x_norm.mean.shape[-1])
        meta = {
            "levels": (n_rad_in - 2) // 5,
            "width": int(stem_w.shape[0]),
            "kernel": int(stem_w.shape[2]),
            "n_res_units": sum(1 for l in tend.model.layers if hasattr(l, "conv1")),
            "mlp_width": int(rad.model.parameters()[0].value.shape[1]),
        }
        payload = {
            "meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            "limits": self.tendency_limits if self.tendency_limits is not None else np.zeros(0),
            "t_xn_mean": tend.x_norm.mean, "t_xn_std": tend.x_norm.std,
            "t_yn_mean": tend.y_norm.mean, "t_yn_std": tend.y_norm.std,
            "r_xn_mean": rad.x_norm.mean, "r_xn_std": rad.x_norm.std,
            "r_yn_mean": rad.y_norm.mean, "r_yn_std": rad.y_norm.std,
        }
        for key, val in state_dict(tend.model).items():
            payload[f"t_{key}"] = val
        for key, val in state_dict(rad.model).items():
            payload[f"r_{key}"] = val
        np.savez_compressed(path, **payload)

    @staticmethod
    def load(path) -> "AIPhysicsSuite":
        """Rebuild a suite saved by :meth:`save`."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            cnn = build_tendency_cnn(levels=meta["levels"], width=meta["width"],
                                     n_res_units=meta["n_res_units"], kernel=meta.get("kernel", 3))
            load_state_dict(
                cnn, {k[2:]: data[k] for k in data.files if k.startswith("t_p")}
            )
            mlp = build_radiation_mlp(levels=meta["levels"], width=meta.get("mlp_width", 160))
            load_state_dict(
                mlp, {k[2:]: data[k] for k in data.files if k.startswith("r_p")}
            )
            tend = Trainer(cnn)
            tend.x_norm = Normalizer(data["t_xn_mean"], data["t_xn_std"])
            tend.y_norm = Normalizer(data["t_yn_mean"], data["t_yn_std"])
            rad = Trainer(mlp)
            rad.x_norm = Normalizer(data["r_xn_mean"], data["r_xn_std"])
            rad.y_norm = Normalizer(data["r_yn_mean"], data["r_yn_std"])
            limits = data["limits"] if data["limits"].size else None
        return AIPhysicsSuite(
            tendency_trainer=tend, radiation_trainer=rad, tendency_limits=limits
        )

    # -- inference ------------------------------------------------------------

    def compute(self, state: ColumnState, dt_s: float) -> PhysicsTendencies:
        """AI tendencies + AI radiation + conventional diagnostics."""
        chan = state.as_channels()
        tend = self.tendency_trainer.predict(chan)
        if self.tendency_limits is not None:
            lim = self.tendency_limits[None, :, None]
            np.clip(tend, -lim, lim, out=tend)
        rad = self.radiation_trainer.predict(_radiation_input(state, chan))
        # Physical flux bounds (solar constant / warm-sky longwave).
        gsw = np.clip(rad[:, 0], 0.0, 1400.0)
        glw = np.clip(rad[:, 1], 0.0, 600.0)

        # Conventional diagnostic module on the AI-updated state.  Its
        # condensation tendencies are *added* to the AI tendencies: the
        # diagnosed rain must actually leave the moisture field, or the
        # small systematic under-drying of the learned dQ accumulates
        # supersaturation over coupled steps (moisture-budget closure).
        updated = state.copy()
        updated.t = state.t + tend[:, 2] * dt_s
        updated.q = np.maximum(state.q + tend[:, 3] * dt_s, 0.0)
        dt_ls, dq_ls, precip, cloud = self.diagnostics.large_scale_condensation(updated, dt_s)
        _, _, _, _, shflx, lhflx = self.diagnostics.surface_layer(updated)

        return PhysicsTendencies(
            du=tend[:, 0],
            dv=tend[:, 1],
            dt=tend[:, 2] + dt_ls,
            dq=tend[:, 3] + dq_ls,
            gsw=gsw,
            glw=glw,
            precip=precip,
            cloud_fraction=cloud,
            shflx=shflx,
            lhflx=lhflx,
        )

    #: Output channels of the two modules, in array order.
    CHANNELS = {"tendency": ("du", "dv", "dt", "dq"), "radiation": ("gsw", "glw")}

    def skill(self, archive: Dict[str, np.ndarray], idx: np.ndarray) -> Dict[str, float]:
        """R^2 of both modules on the given sample indices: one per output
        channel (``"tendency.dt"``, ``"radiation.gsw"``, ...) and each
        module's mean over its channels (``"tendency"``, ``"radiation"``).
        Every channel is scored against its own mean — pooling channels
        under one mean would mix their units and offsets."""
        out: Dict[str, float] = {}
        for name, trainer, x, y in (
            ("tendency", self.tendency_trainer, archive["x_column"], archive["y_tendency"]),
            ("radiation", self.radiation_trainer, archive["x_radiation"], archive["y_radiation"]),
        ):
            pred = trainer.predict(x[idx])
            target = y[idx]
            axes = (0,) + tuple(range(2, target.ndim))  # all but the channel axis
            ss_res = np.sum((pred - target) ** 2, axis=axes)
            ss_tot = np.sum((target - target.mean(axis=axes, keepdims=True)) ** 2, axis=axes)
            r2 = 1.0 - ss_res / np.maximum(ss_tot, 1e-300)
            out.update((f"{name}.{c}", float(v)) for c, v in zip(self.CHANNELS[name], r2))
            out[name] = float(r2.mean())
        return out
