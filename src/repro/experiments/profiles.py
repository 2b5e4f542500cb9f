"""Parameter profiles that scale every experiment up or down together.

A :class:`Profile` bundles the knobs shared by all experiment modules —
trace count, crop size, seed, and an optional model subset — so the same
`compute()` entry point can run at CI scale (small crops, few traces) or
at paper scale (each model's own crop, the numbers ``run_all`` reports).
Experiment ``run()`` functions take these knobs without defaults; the
profile is the only place their values live.  The regression harness
keys goldens by ``profile.name``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.experiments.common import DEFAULT_TRACE_COUNT
from repro.utils.rng import DEFAULT_SEED


@dataclass(frozen=True)
class Profile:
    """One named scale at which every experiment can run.

    Attributes
    ----------
    name:
        Key used for golden storage (``goldens/<name>/<experiment>.json``).
    trace_count:
        Traces per model, for every model-sweep experiment.
    crop:
        Input crop edge in pixels; ``None`` keeps each model's own
        ``trace_crop`` (and each one-model experiment's own crop).
    seed:
        Root RNG seed for weights, inputs, and calibration.
    models:
        Optional model-name subset; ``None`` keeps each experiment's own
        model list (the paper's).  Mainly for tiny test profiles.
    """

    name: str
    trace_count: int = DEFAULT_TRACE_COUNT
    crop: int | None = None
    seed: int = DEFAULT_SEED
    models: tuple[str, ...] | None = None

    def pick_models(self, default: "tuple[str, ...]") -> "tuple[str, ...]":
        """The model list this profile runs: its subset, else ``default``."""
        return self.models if self.models is not None else default

    def pick_crop(self, default: int | None = None) -> int | None:
        """The crop this profile uses, else an experiment's own default."""
        return self.crop if self.crop is not None else default

    def sweep_kwargs(self, default_models: "tuple[str, ...]") -> dict:
        """``models``, ``trace_count``, ``crop`` and ``seed`` for a model-sweep ``run()``."""
        return dict(
            models=self.pick_models(default_models),
            trace_count=self.trace_count,
            crop=self.crop,
            seed=self.seed,
        )

    def one_model_kwargs(self, default_crop: int) -> dict:
        """``model``, ``crop`` and ``seed`` for a one-model ``run()``.

        The model is the profile's first, else DnCNN, the paper's running
        example and the network every one-model experiment studies.
        """
        return dict(
            model=self.pick_models(("DnCNN",))[0],
            crop=self.pick_crop(default_crop),
            seed=self.seed,
        )

    def describe(self) -> dict:
        """JSON-friendly description embedded in golden files."""
        return asdict(self)


#: Reduced scale for CI: small crops keep tracing cheap while preserving
#: the HD-statistics properties the paper's claims rest on (Fig 17 shows
#: they weaken but survive at lower resolution).
CI_PROFILE = Profile(name="ci", trace_count=DEFAULT_TRACE_COUNT, crop=48)

#: Paper scale: each model's own ``trace_crop`` and each one-model
#: experiment's own crop — what ``run_all`` reports.
FULL_PROFILE = Profile(name="full", trace_count=DEFAULT_TRACE_COUNT, crop=None)

#: Named profiles accepted by the regression CLI.
PROFILES: dict = {p.name: p for p in (CI_PROFILE, FULL_PROFILE)}


def resolve_profile(profile: Profile | str | None) -> Profile:
    """Normalize a profile argument: object, registered name, or None (CI)."""
    if profile is None:
        return CI_PROFILE
    if isinstance(profile, Profile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; registered: {sorted(PROFILES)}"
        ) from None
