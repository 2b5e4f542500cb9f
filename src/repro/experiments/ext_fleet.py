"""Extension experiment: fleet-scale serving — routing × node count.

:mod:`repro.experiments.ext_serving` asks what one node's goodput looks
like under load; this experiment asks the question a deployment
actually faces: given N accelerator nodes behind a front end, **where
should each video session's frames go?**  For a differential engine the
answer is not "wherever is free" — a session is only cheap on the node
holding its previous-frame state, so the router's affinity policy
directly moves the warm fraction, and through it goodput and tail
latency.

Two sweeps over one identical seeded workload:

- **static fleet** — every (engine × routing policy × node count) cell
  serves the same arrival stream.  Offered load is pinned to
  ``load_factor`` × the VAA cold capacity of the *reference* fleet size
  (the middle of the node sweep), so small fleets are overloaded and
  large ones comfortable; the routing ladder is read at the reference
  size where the policies actually separate.
- **autoscale scenario** — a diurnal (sinusoidal) session profile with
  the watermark autoscaler enabled: nodes are added at the peak and
  drained at the trough, and every scale-down's migration/re-anchor
  cost shows up in the report rather than being assumed free.

All cells are byte-deterministic across runs (see
:mod:`repro.serve.fleet.service`), which is what lets this experiment
carry ci/full goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.sim import HD_RESOLUTION
from repro.experiments.common import format_table
from repro.experiments.profiles import Profile, resolve_profile
from repro.serve.fleet import AutoscalePolicy, FleetConfig, FleetReport, simulate_fleet
from repro.serve.fleet.routing import ROUTING_POLICIES
from repro.serve.latency import measure_service_times
from repro.serve.service import ServeConfig
from repro.serve.workload import WorkloadSpec, generate_diurnal_requests, generate_requests

#: Engines compared at fleet scale (the paper's baseline vs its design).
FLEET_ENGINES = ("VAA", "Diffy")

#: Node sweeps per profile scale.
CI_NODE_COUNTS = (1, 2, 4)
FULL_NODE_COUNTS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class FleetCell:
    """One (engine, policy, nodes) point of the static sweep."""

    engine: str
    policy: str
    nodes: int
    goodput_rps: float
    p99_ms: float
    shed_rate: float
    warm_fraction: float
    migrations: int
    reanchors_evicted: int


@dataclass(frozen=True)
class AutoscaleCell:
    """One engine's diurnal run with the autoscaler in the loop."""

    engine: str
    goodput_rps: float
    p99_ms: float
    shed_rate: float
    warm_fraction: float
    migrations: int
    scale_ups: int
    scale_downs: int
    peak_nodes: int
    nodes_final: int


@dataclass(frozen=True)
class FleetStudyResult:
    """The full fleet study (golden-pinned)."""

    model: str
    crop: int
    resolution: tuple
    seed: int
    engines: tuple
    policies: tuple
    node_counts: tuple
    ref_nodes: int
    load_factor: float
    frames_per_session: int
    duration_units: float
    node_config: ServeConfig
    offered_rps: float
    cells: "tuple[FleetCell, ...]"
    autoscale: "tuple[AutoscaleCell, ...]"

    __golden_properties__ = (
        "diffy_goodput_by_nodes",
        "warm_fraction_ladder",
        "diffy_over_vaa_goodput",
        "autoscale_summary",
    )

    def cell(self, engine: str, policy: str, nodes: int) -> FleetCell:
        for c in self.cells:
            if (c.engine, c.policy, c.nodes) == (engine, policy, nodes):
                return c
        raise KeyError(f"no cell for ({engine!r}, {policy!r}, {nodes})")

    @property
    def diffy_goodput_by_nodes(self) -> dict:
        """Goodput scaling of the state-aware Diffy fleet vs node count."""
        return {n: self.cell("Diffy", "state_aware", n).goodput_rps for n in self.node_counts}

    @property
    def warm_fraction_ladder(self) -> dict:
        """Warm fraction per routing policy (Diffy, reference fleet size)."""
        return {p: self.cell("Diffy", p, self.ref_nodes).warm_fraction for p in self.policies}

    @property
    def diffy_over_vaa_goodput(self) -> float:
        """Diffy's goodput advantage at the reference size, state-aware."""
        vaa = self.cell("VAA", "state_aware", self.ref_nodes).goodput_rps
        diffy = self.cell("Diffy", "state_aware", self.ref_nodes).goodput_rps
        return diffy / vaa if vaa else float("inf")

    @property
    def autoscale_summary(self) -> dict:
        return {
            a.engine: {
                "goodput_rps": a.goodput_rps,
                "peak_nodes": a.peak_nodes,
                "scale_ups": a.scale_ups,
                "scale_downs": a.scale_downs,
                "migrations": a.migrations,
            }
            for a in self.autoscale
        }


def _static_cell(report: FleetReport, nodes: int) -> FleetCell:
    return FleetCell(
        engine=report.engine,
        policy=report.policy,
        nodes=nodes,
        goodput_rps=report.goodput_rps,
        p99_ms=report.p99_ms,
        shed_rate=report.shed_rate,
        warm_fraction=report.warm_fraction,
        migrations=report.migrations,
        reanchors_evicted=report.reanchors_evicted,
    )


def run(
    *,
    model: str,
    crop: int,
    seed: int,
    engines: tuple = FLEET_ENGINES,
    policies: tuple = ROUTING_POLICIES,
    node_counts: tuple = FULL_NODE_COUNTS,
    workers: int = 2,
    load_factor: float = 1.4,
    frames_per_session: int = 6,
    duration_units: float = 40.0,
    resolution: tuple = HD_RESOLUTION,
) -> FleetStudyResult:
    """Sweep routing policy × node count on one seeded workload.

    Time constants scale with VAA's measured cold service time (the
    *unit*), exactly as in :mod:`repro.experiments.ext_serving`: frames
    every 2 units, deadlines of 4 units, offered load ``load_factor`` ×
    the VAA cold capacity of the reference (middle) fleet size.
    """
    if "VAA" not in engines:
        raise ValueError("the fleet study needs VAA (its cold time is the unit)")
    times = measure_service_times(
        model, engines=engines, crop=crop, resolution=resolution, seed=seed
    )
    unit = times["VAA"].cold_s
    node_counts = tuple(sorted(node_counts))
    ref_nodes = node_counts[len(node_counts) // 2]
    offered_target = load_factor * ref_nodes * workers / unit
    spec = WorkloadSpec(
        duration_s=duration_units * unit,
        session_rate=offered_target / frames_per_session,
        frames_per_session=frames_per_session,
        frame_interval_s=2.0 * unit,
        seed=seed,
    )
    requests = generate_requests(spec)
    node_config = ServeConfig(
        workers=workers,
        max_batch=4,
        max_wait_s=0.0,
        queue_capacity=16,
        deadline_s=4.0 * unit,
        state_capacity_bytes=8 * times[engines[0]].state_bytes,
    )
    session_ttl_s = (2.0 * frames_per_session + 8.0) * unit
    cells = []
    for engine in engines:
        for policy in policies:
            for nodes in node_counts:
                config = FleetConfig(
                    nodes=nodes,
                    routing=policy,
                    node=node_config,
                    session_ttl_s=session_ttl_s,
                    seed=seed,
                )
                report = simulate_fleet(requests, times[engine], config, spec.duration_s)
                cells.append(_static_cell(report, nodes))

    # Diurnal + autoscale scenario: mean load sized for the reference
    # fleet, 80% day/night swing over two periods.
    diurnal = generate_diurnal_requests(spec, amplitude=0.8, period_s=spec.duration_s / 2.0)
    scaler = AutoscalePolicy(
        min_nodes=1,
        max_nodes=max(node_counts),
        eval_interval_s=4.0 * unit,
        target_rps_per_node=workers / unit,
    )
    autoscale_cells = []
    for engine in engines:
        config = FleetConfig(
            nodes=ref_nodes,
            routing="state_aware",
            node=node_config,
            session_ttl_s=session_ttl_s,
            autoscale=scaler,
            seed=seed,
        )
        report = simulate_fleet(diurnal, times[engine], config, spec.duration_s)
        ups = sum(1 for e in report.scale_events if e.action == "add")
        downs = sum(1 for e in report.scale_events if e.action == "drain")
        autoscale_cells.append(
            AutoscaleCell(
                engine=engine,
                goodput_rps=report.goodput_rps,
                p99_ms=report.p99_ms,
                shed_rate=report.shed_rate,
                warm_fraction=report.warm_fraction,
                migrations=report.migrations,
                scale_ups=ups,
                scale_downs=downs,
                peak_nodes=report.peak_nodes,
                nodes_final=report.nodes_final,
            )
        )
    return FleetStudyResult(
        model=model,
        crop=crop,
        resolution=tuple(resolution),
        seed=seed,
        engines=tuple(engines),
        policies=tuple(policies),
        node_counts=node_counts,
        ref_nodes=ref_nodes,
        load_factor=load_factor,
        frames_per_session=frames_per_session,
        duration_units=duration_units,
        node_config=node_config,
        offered_rps=len(requests) / spec.duration_s,
        cells=tuple(cells),
        autoscale=tuple(autoscale_cells),
    )


def compute(profile: "Profile | None" = None) -> FleetStudyResult:
    """Profile-scaled entry point for the golden-regression harness."""
    p = resolve_profile(profile)
    return run(
        **p.one_model_kwargs(64),
        node_counts=FULL_NODE_COUNTS if p.name == "full" else CI_NODE_COUNTS,
    )


def format_result(result: FleetStudyResult) -> str:
    rows = []
    for c in result.cells:
        rows.append(
            (
                c.engine,
                c.policy,
                str(c.nodes),
                f"{c.goodput_rps:.2f}",
                f"{100 * c.shed_rate:.1f}%",
                f"{c.p99_ms:.0f}",
                f"{100 * c.warm_fraction:.0f}%",
                str(c.migrations),
            )
        )
    h, w = result.resolution
    table = format_table(
        ["engine", "routing", "nodes", "goodput rps", "shed", "p99 ms", "warm", "migrations"],
        rows,
        title=(
            f"Extension: fleet serving — {result.model} at {w}x{h}, "
            f"offered load fixed at {result.load_factor}x the {result.ref_nodes}-node "
            "VAA cold capacity"
        ),
    )
    auto_rows = [
        (
            a.engine,
            f"{a.goodput_rps:.2f}",
            f"{100 * a.shed_rate:.1f}%",
            f"{100 * a.warm_fraction:.0f}%",
            str(a.migrations),
            f"+{a.scale_ups}/-{a.scale_downs}",
            str(a.peak_nodes),
        )
        for a in result.autoscale
    ]
    auto = format_table(
        ["engine", "goodput rps", "shed", "warm", "migrations", "scale +/-", "peak nodes"],
        auto_rows,
        title="Diurnal load with watermark autoscaling (state-aware routing)",
    )
    ladder = ", ".join(f"{p}={100 * v:.0f}%" for p, v in result.warm_fraction_ladder.items())
    return (
        table
        + "\n\n"
        + auto
        + f"\n\nwarm fraction by routing policy (Diffy, {result.ref_nodes} nodes): {ladder}"
        + f"\nDiffy goodput / VAA goodput (state-aware, {result.ref_nodes} nodes): "
        + f"{result.diffy_over_vaa_goodput:.2f}x"
    )
