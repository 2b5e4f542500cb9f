"""Extension experiment: chaos-under-load — protection ladders × faults.

:mod:`repro.experiments.ext_fleet` asks how a fleet serves when
everything works; this experiment asks what the same fleet does when
things break, which is the question an SLO is actually written about.
One seeded workload (with scene cuts and motion bursts overlaid) runs
under one deterministic chaos timeline — a node crash with restart, a
degraded-node window, and a correlated fault+load burst — while the
grid sweeps the two levers an operator owns:

- **protection ladder** (``none`` → ``ecc`` → ``checksum`` →
  ``keyframe`` → ``full``): how stored temporal state is protected, and
  therefore whether a storage fault is corrected, detected (the session
  re-anchors, paying a cold frame), or served *silently* corrupt;
- **storage fault rate**: per-stored-bit upset rate against each
  engine's resident per-session state.

Every cell executes the identical event timeline (the schedule is keyed
by the grid seed alone), so differences between cells are purely the
ladder's detection/correction behaviour and its storage overhead.  The
reported surfaces are the reliability numbers a postmortem needs:
goodput under chaos per ladder × rate, the detected-vs-silent
corruption split (``full`` must show zero silent), and crash recovery —
the re-anchor spike when a node's state dies and the warm-fraction
climb as sessions re-anchor and go warm again.

All cells are byte-deterministic across cold runs, so the experiment
carries ci/full goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.experiments.common import format_table
from repro.experiments.profiles import Profile, resolve_profile
from repro.serve.chaos.campaign import (
    ChaosCell,
    ChaosGridResult,
    chaos_grid,
    run_chaos_grid,
)
from repro.serve.chaos.schedule import ChaosSpec, generate_schedule, overload_requests
from repro.serve.latency import measure_service_times
from repro.serve.service import ServeConfig
from repro.serve.workload import WorkloadSpec, apply_scene_dynamics, generate_requests

#: Engines compared under chaos (the paper's baseline vs its design).
CHAOS_ENGINES = ("VAA", "Diffy")

#: Ladder/rate grids per profile scale.
CI_LADDERS = ("none", "full")
FULL_LADDERS = ("none", "ecc", "checksum", "keyframe", "full")
#: Fault rates are chosen above the discreteness floor of the simulation:
#: below ~1e-3 per stored bit a chaos cell sees only a handful of
#: detected reads, and their goodput effect is smaller than one batch's
#: worth of scheduling noise.
CI_RATES = (0.0, 1e-3)
FULL_RATES = (0.0, 1e-3, 3e-3, 1e-2)
CI_NODES = 2
FULL_NODES = 4

#: Deadline (in units) sized so queueing delay under saturation sits just
#: under it — the regime where the extra cold serves a fault storm forces
#: actually move goodput instead of hiding inside queue slack.
DEADLINE_UNITS = 2.5


@dataclass(frozen=True)
class ChaosStudyResult:
    """The full chaos study (golden-pinned)."""

    model: str
    crop: int
    resolution: tuple
    seed: int
    engines: tuple
    ladders: tuple
    rates: tuple
    nodes: int
    workers: int
    load_factor: float
    frames_per_session: int
    duration_units: float
    duration_s: float
    offered_rps: float
    overload_requests: int
    node_config: ServeConfig
    chaos_template: ChaosSpec
    cells: "tuple[ChaosCell, ...]"

    __golden_properties__ = (
        "goodput_by_ladder",
        "silent_by_ladder",
        "silent_under_full",
        "goodput_monotone_by_ladder",
        "warm_monotone_by_ladder",
        "crash_recovery",
    )

    def cell(self, engine: str, ladder: str, rate: float) -> ChaosCell:
        for c in self.cells:
            if (c.engine, c.ladder) == (engine, ladder) and c.rate == rate:
                return c
        raise KeyError(f"no cell for ({engine!r}, {ladder!r}, {rate})")

    @property
    def goodput_by_ladder(self) -> dict:
        """Diffy goodput per ladder × fault rate — the chaos SLO surface."""
        return {
            ladder: {f"{rate:g}": self.cell("Diffy", ladder, rate).goodput_rps for rate in self.rates}
            for ladder in self.ladders
        }

    @property
    def silent_by_ladder(self) -> dict:
        """Silent corruptions served per ladder, summed over rates/engines."""
        out: dict = {}
        for ladder in self.ladders:
            out[ladder] = sum(c.storage_silent for c in self.cells if c.ladder == ladder)
        return out

    @property
    def silent_under_full(self) -> int:
        """Silent corruptions under the ``full`` ladder — must be zero."""
        return self.silent_by_ladder.get("full", 0)

    @property
    def goodput_monotone_by_ladder(self) -> dict:
        """Whether Diffy goodput degrades monotonically with fault rate.

        Monotone up to one batch's worth of scheduling noise (2% of the
        fault-free goodput): under a binding deadline, shedding a late
        request *before* dispatch can raise good completions slightly,
        so exact monotonicity is not a property even of a perfect
        simulator.  A real regression — goodput recovering by more than
        the discreteness floor as faults increase — still trips this.
        """
        out = {}
        for ladder in self.ladders:
            goodputs = [self.cell("Diffy", ladder, rate).goodput_rps for rate in sorted(self.rates)]
            slack = 0.02 * goodputs[0]
            out[ladder] = all(
                later <= earlier + slack for earlier, later in zip(goodputs, goodputs[1:])
            )
        return out

    @property
    def warm_monotone_by_ladder(self) -> dict:
        """Whether Diffy's warm fraction strictly degrades with fault rate.

        The noise-free monotone signal: every detected fault costs a
        re-anchor, so warm fraction can only fall as the rate rises
        (ladders with no detection stay exactly flat).
        """
        out = {}
        for ladder in self.ladders:
            warm = [self.cell("Diffy", ladder, rate).warm_fraction for rate in sorted(self.rates)]
            out[ladder] = all(
                later <= earlier + 1e-12 for earlier, later in zip(warm, warm[1:])
            )
        return out

    @property
    def crash_recovery(self) -> dict:
        """The crash signature: re-anchor spike, then warm-fraction recovery.

        Read from the fault-free ``full``-ladder Diffy cell so the spike
        is attributable to the node crash alone (no storage re-anchors).
        The crash bucket comes from regenerating the (seed-pinned) chaos
        schedule, not from scanning for a maximum — tail-drain buckets
        and scene-cut churn cannot masquerade as the crash.
        """
        cell = self.cell("Diffy", "full", 0.0)
        schedule = generate_schedule(self.chaos_template, self.duration_s, range(self.nodes))
        reanchor = list(cell.reanchor_by_bucket)
        warm = list(cell.warm_by_bucket)
        cold = list(cell.cold_by_bucket)
        buckets = len(reanchor)

        def bucket(t: float) -> int:
            return min(buckets - 1, max(0, int(t / self.duration_s * buckets)))

        def warm_fraction(lo: int, hi: int) -> float:
            w, c = sum(warm[lo:hi]), sum(cold[lo:hi])
            return w / (w + c) if (w + c) else 0.0

        crash = schedule.crashes[0]
        crash_b = bucket(crash.crash_s)
        restart_b = bucket(crash.restart_s)
        # The re-anchor storm: failed-over sessions re-anchor on the
        # surviving nodes within a frame interval of the crash.
        storm_hi = min(restart_b + 2, buckets - 1)
        storm = sum(reanchor[crash_b:storm_hi])
        before = sum(reanchor[:crash_b]) / crash_b if crash_b else 0.0
        # Recovery window: after the storm, excluding the clamped tail
        # bucket (post-window drain work lands there).
        warm_storm = warm_fraction(crash_b, storm_hi)
        warm_after = warm_fraction(storm_hi, buckets - 1)
        return {
            "crash_bucket": crash_b,
            "restart_bucket": restart_b,
            "reanchors_in_storm": storm,
            "reanchors_per_bucket_before": before,
            "spiked": storm > before * max(1, storm_hi - crash_b),
            "sessions_lost": cell.sessions_lost,
            "sessions_recovered": cell.sessions_recovered,
            "warm_fraction_in_storm": warm_storm,
            "warm_fraction_after": warm_after,
            "recovered": warm_after > warm_storm,
        }


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    engines: tuple = CHAOS_ENGINES,
    ladders: tuple = FULL_LADDERS,
    rates: tuple = FULL_RATES,
    nodes: int = FULL_NODES,
    workers: int = 2,
    load_factor: float = 1.15,
    frames_per_session: int = 8,
    duration_units: float = 40.0,
    queue_capacity: int = 32,
    resolution: tuple = HD_RESOLUTION,
) -> ChaosStudyResult:
    """Sweep protection ladder × fault rate under one chaos timeline.

    Time constants scale with VAA's measured cold service time (the
    *unit*), as in the serving and fleet studies.  Offered load is sized
    differently: ``load_factor`` × the fleet's cold capacity on the
    *fastest* engine — the differential design the fleet is provisioned
    for.  That puts the Diffy cells at mild saturation, where every
    re-anchor a fault forces (and every request a crash or degrade
    window delays) shows up in goodput; the VAA rows then show what the
    same chaos does to a fleet that cannot hold the load even fault-free.
    """
    if "VAA" not in engines:
        raise ValueError("the chaos study needs VAA (its cold time is the unit)")
    times = measure_service_times(
        model, engines=engines, crop=crop, resolution=resolution, seed=seed
    )
    unit = times["VAA"].cold_s
    provision_s = min(t.cold_s for t in times.values())
    spec = WorkloadSpec(
        duration_s=duration_units * unit,
        session_rate=load_factor * nodes * workers / provision_s / frames_per_session,
        frames_per_session=frames_per_session,
        frame_interval_s=2.0 * unit,
        seed=seed,
    )
    requests = apply_scene_dynamics(
        generate_requests(spec),
        cut_probability=0.02,
        burst_probability=0.05,
        seed=seed,
    )
    template = ChaosSpec(
        fault_model="flip1",
        storage_trials=64,
        crashes=1,
        crash_downtime_s=4.0 * unit,
        degrades=1,
        degrade_len_s=6.0 * unit,
        degrade_slowdown=2.0,
        bursts=1,
        burst_len_s=6.0 * unit,
        burst_fault_mult=10.0,
        burst_load_mult=1.5,
        seed=seed,
    )
    # The burst's overload sessions are part of the offered workload and
    # identical for every cell (the schedule timing depends only on the
    # grid seed, never on the ladder or rate under test).
    schedule = generate_schedule(template, spec.duration_s, range(nodes))
    extra = overload_requests(spec, schedule, first_session_id=10**6)
    merged = sorted(
        list(requests) + extra, key=lambda r: (r.arrival_s, r.session_id, r.frame_index)
    )
    # Capacity for ~48 resident sessions per node: generous enough that
    # eviction churn does not drown the crash's re-anchor storm, tight
    # enough that the protection ladders' storage overhead still costs
    # real residency.
    node_config = ServeConfig(
        workers=workers,
        max_batch=4,
        max_wait_s=0.0,
        queue_capacity=queue_capacity,
        deadline_s=DEADLINE_UNITS * unit,
        state_capacity_bytes=48 * times[engines[0]].state_bytes,
    )
    session_ttl_s = (2.0 * frames_per_session + 8.0) * unit
    grid: ChaosGridResult = run_chaos_grid(
        merged,
        times,
        chaos_grid(engines, ladders, rates),
        template,
        node_config,
        spec.duration_s,
        nodes=nodes,
        session_ttl_s=session_ttl_s,
        seed=seed,
    )
    return ChaosStudyResult(
        model=model,
        crop=crop,
        resolution=tuple(resolution),
        seed=seed,
        engines=tuple(engines),
        ladders=tuple(ladders),
        rates=tuple(float(r) for r in rates),
        nodes=nodes,
        workers=workers,
        load_factor=load_factor,
        frames_per_session=frames_per_session,
        duration_units=duration_units,
        duration_s=spec.duration_s,
        offered_rps=grid.offered_rps,
        overload_requests=len(extra),
        node_config=node_config,
        chaos_template=template,
        cells=grid.cells,
    )


def compute(profile: "Profile | None" = None) -> ChaosStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    p = resolve_profile(profile)
    full = p.name == "full"
    return run(
        **p.one_model_kwargs(64),
        ladders=FULL_LADDERS if full else CI_LADDERS,
        rates=FULL_RATES if full else CI_RATES,
        nodes=FULL_NODES if full else CI_NODES,
    )


def format_result(result: ChaosStudyResult) -> str:
    rows = [
        (
            c.engine,
            c.ladder,
            f"{c.rate:g}",
            f"{c.goodput_rps:.2f}",
            f"{100 * c.warm_fraction:.0f}%",
            str(c.storage_corrected),
            str(c.storage_detected),
            str(c.storage_silent),
            str(c.sessions_recovered),
            f"{c.recovery_p99_ms:.0f}",
        )
        for c in result.cells
    ]
    h, w = result.resolution
    table = format_table(
        [
            "engine",
            "ladder",
            "rate",
            "goodput rps",
            "warm",
            "corrected",
            "detected",
            "silent",
            "recovered",
            "rec p99 ms",
        ],
        rows,
        title=(
            f"Extension: chaos under load — {result.model} at {w}x{h}, "
            f"{result.nodes} nodes, 1 crash + 1 degrade + 1 fault/load burst"
        ),
    )
    recovery = result.crash_recovery
    silent = ", ".join(f"{l}={n}" for l, n in result.silent_by_ladder.items())
    return (
        table
        + f"\n\nsilent corruptions by ladder (all rates): {silent}"
        + "\ncrash recovery (Diffy, full ladder, fault-free): "
        + f"{recovery['reanchors_in_storm']} re-anchors in the storm window "
        + f"(buckets {recovery['crash_bucket']}-{recovery['restart_bucket']}, "
        + f"{recovery['reanchors_per_bucket_before']:.1f}/bucket before), warm fraction "
        + f"{100 * recovery['warm_fraction_in_storm']:.0f}% in the storm -> "
        + f"{100 * recovery['warm_fraction_after']:.0f}% after"
    )
