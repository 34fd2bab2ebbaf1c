//! The toolkit's registry tables: every `pom` command, every validated
//! daemon route, and every sweep-spec section, declared once.
//!
//! Adding a knob is a one-place edit: extend the relevant table here and
//! read the typed value in the command's `run` (or the route handler).
//! Parsing, `pom help`, `pom help <cmd>`, `GET /schema`, `docs/CLI.md`
//! and the differential CLI/HTTP tests all pick it up from this file.

use super::{ArgKind, ArgSpec, CommandSpec, Registry, RouteSpec, SectionSpec};

const fn en(variants: &'static [&'static str], expected: &'static str) -> ArgKind {
    ArgKind::Enum { variants, expected }
}

/// `pom help [command] [format=…]`.
pub const HELP: CommandSpec = CommandSpec {
    name: "help",
    aliases: &["--help", "-h"],
    summary: "this help text (and per-command pages)",
    args: &[
        ArgSpec::new(
            "command",
            ArgKind::Str,
            "command name to describe in detail",
        )
        .positional(),
        ArgSpec::new(
            "format",
            en(&["text", "json", "md"], "one of text, json, md"),
            "output: text, json (the registry, same document as GET /schema), \
             or md (the docs/CLI.md source)",
        )
        .with_default("text"),
    ],
    examples: &["pom help simulate", "pom help format=json"],
};

/// `pom potentials`.
pub const POTENTIALS: CommandSpec = CommandSpec {
    name: "potentials",
    aliases: &[],
    summary: "Fig. 1(a) interaction potential curves",
    args: &[
        ArgSpec::new(
            "sigma",
            ArgKind::F64,
            "interaction horizon σ of the desync potential",
        )
        .with_default("3"),
        ArgSpec::new("xmax", ArgKind::F64, "sample range: x ∈ [-xmax, xmax]").with_default("10"),
        ArgSpec::new("n", ArgKind::U64, "number of samples (min 5)").with_default("41"),
    ],
    examples: &["pom potentials sigma=2 xmax=5 n=11"],
};

/// `pom scaling`.
pub const SCALING: CommandSpec = CommandSpec {
    name: "scaling",
    aliases: &[],
    summary: "Fig. 1(b) per-socket bandwidth scaling",
    args: &[ArgSpec::new(
        "cores",
        ArgKind::U64,
        "processes per socket to sweep (min 1; default = one Meggie socket)",
    )
    .with_default("10")],
    examples: &["pom scaling cores=6"],
};

/// `pom fig2`.
pub const FIG2: CommandSpec = CommandSpec {
    name: "fig2",
    aliases: &[],
    summary: "one Fig. 2 corner case, model + simulator",
    args: &[ArgSpec::new(
        "panel",
        en(&["a", "b", "c", "d"], "one of a, b, c, d"),
        "Fig. 2 corner case to reproduce",
    )
    .with_default("a")],
    examples: &["pom fig2 panel=c"],
};

/// `pom simulate`.
pub const SIMULATE: CommandSpec = CommandSpec {
    name: "simulate",
    aliases: &[],
    summary: "parameterized model run with result views",
    args: &[
        ArgSpec::new("n", ArgKind::U64, "oscillator count (min 2)").with_default("40"),
        ArgSpec::new(
            "potential",
            en(
                &["tanh", "desync", "sin", "kuramoto"],
                "one of tanh, desync, sin, kuramoto",
            ),
            "interaction potential (sin/kuramoto are the plain Kuramoto model)",
        )
        .with_default("tanh"),
        ArgSpec::new(
            "sigma",
            ArgKind::F64,
            "interaction horizon σ (desync potential)",
        )
        .with_default("3"),
        ArgSpec::new("tcomp", ArgKind::F64, "compute-phase duration").with_default("0.9"),
        ArgSpec::new("tcomm", ArgKind::F64, "communication-phase duration").with_default("0.1"),
        ArgSpec::new("distances", ArgKind::IntList, "neighbor distance offsets")
            .with_default("-1,1"),
        ArgSpec::new(
            "topology",
            en(
                &["ring", "chain", "all", "all-to-all"],
                "one of ring, chain, all-to-all",
            ),
            "communication topology",
        )
        .with_default("ring"),
        ArgSpec::new(
            "coupling",
            ArgKind::F64,
            "explicit coupling v_p (overrides κ/β defaults)",
        ),
        ArgSpec::new("kappa", ArgKind::F64, "distance weight κ"),
        ArgSpec::new(
            "norm",
            en(&["degree", "n"], "one of degree, n"),
            "coupling normalization",
        )
        .with_default("degree"),
        ArgSpec::new("t_end", ArgKind::F64, "integration span").with_default("120"),
        ArgSpec::new(
            "samples",
            ArgKind::U64,
            "recorded trajectory samples (trajectory path only)",
        )
        .with_default("400"),
        ArgSpec::new(
            "init",
            en(
                &["sync", "spread", "wavefront"],
                "one of sync, spread, wavefront",
            ),
            "initial condition",
        )
        .with_default("spread"),
        ArgSpec::new(
            "amplitude",
            ArgKind::F64,
            "random-spread amplitude (init=spread)",
        )
        .with_default("1"),
        ArgSpec::new("slope", ArgKind::F64, "wavefront slope (init=wavefront)").with_default("0.5"),
        ArgSpec::new("seed", ArgKind::U64, "base RNG seed").with_default("7"),
        ArgSpec::new("noise", ArgKind::F64, "white-jitter amplitude (0 disables)")
            .with_default("0"),
        ArgSpec::new(
            "delay_rank",
            ArgKind::U64,
            "rank receiving a one-off injected delay",
        ),
        ArgSpec::new(
            "delay_at",
            ArgKind::F64,
            "injected delay window start (with delay_rank)",
        )
        .with_default("5"),
        ArgSpec::new(
            "delay_len",
            ArgKind::F64,
            "injected delay window length (with delay_rank)",
        )
        .with_default("3"),
        ArgSpec::new(
            "kernel",
            en(&["exact", "sincos"], "one of exact, sincos"),
            "RHS kernel: bitwise libm reference or split sin/cos fast path; observe=1 statistics follow it",
        )
        .with_default("exact"),
        ArgSpec::new(
            "rhs-threads",
            ArgKind::U64,
            "intra-run RHS threads (0 = all cores)",
        )
        .with_default("1")
        .with_aliases(&["rhs_threads"]),
        ArgSpec::new(
            "observe",
            ArgKind::Bool,
            "stream observables online (O(N) memory, no trajectory)",
        )
        .with_default("0"),
        ArgSpec::new(
            "record-every",
            ArgKind::U64,
            "streaming decimation stride (observe=1 only)",
        )
        .with_default("1"),
        ArgSpec::new(
            "replicas",
            ArgKind::U64,
            "lockstep ensemble replicas (reports mean/ci95 aggregates)",
        )
        .with_default("1"),
        ArgSpec::new(
            "h",
            ArgKind::F64,
            "fixed RK4 step (also batches replicas in lockstep)",
        ),
        ArgSpec::new(
            "view",
            en(
                &["order", "circle", "spread", "heatmap"],
                "one of order, circle, spread, heatmap",
            ),
            "result view (trajectory path only)",
        )
        .with_default("order"),
    ],
    examples: &[
        "pom simulate n=24 potential=desync sigma=1.5 topology=chain view=circle",
        "pom simulate n=400 observe=1 record-every=10 t_end=500",
        "pom simulate replicas=8 noise=0.05 h=0.05",
    ],
};

/// `pom sweep`.
pub const SWEEP: CommandSpec = CommandSpec {
    name: "sweep",
    aliases: &[],
    summary: "run a declarative scenario campaign from a spec file",
    args: &[
        ArgSpec::new(
            "spec",
            ArgKind::Path,
            "campaign spec file (TOML, or JSON starting with `{`)",
        )
        .required()
        .positional(),
        ArgSpec::new("threads", ArgKind::U64, "worker threads (0 = all cores)").with_default("0"),
        ArgSpec::new(
            "out",
            ArgKind::Path,
            "output file (omit to print the rows in `format`)",
        ),
        ArgSpec::new(
            "format",
            en(&["jsonl", "csv"], "one of jsonl, csv"),
            "output format",
        )
        .with_default("jsonl"),
        ArgSpec::new(
            "resume",
            ArgKind::Bool,
            "resume a partial JSONL file (re-runs only missing points)",
        )
        .with_default("0"),
        ArgSpec::new(
            "stats",
            ArgKind::Bool,
            "instrument the run and append a per-point latency summary (p50/p90/p99)",
        )
        .with_default("0"),
    ],
    examples: &[
        "pom sweep campaign.toml",
        "pom sweep campaign.toml out=rows.jsonl resume=1",
    ],
};

/// `pom serve`.
pub const SERVE: CommandSpec = CommandSpec {
    name: "serve",
    aliases: &[],
    summary: "campaign daemon: HTTP job API over the sweep engine",
    args: &[
        ArgSpec::new("addr", ArgKind::Str, "listen address").with_default("127.0.0.1:7700"),
        ArgSpec::new(
            "spool",
            ArgKind::Path,
            "spool directory (crash-safe job state)",
        )
        .with_default("pom-spool"),
        ArgSpec::new("threads", ArgKind::U64, "worker threads (0 = all cores)").with_default("0"),
        ArgSpec::new(
            "max-jobs",
            ArgKind::U64,
            "active-job admission bound (429 past it)",
        )
        .with_default("16"),
        ArgSpec::new(
            "max-conns",
            ArgKind::U64,
            "concurrent-connection bound (503 past it)",
        )
        .with_default("256"),
        ArgSpec::new(
            "auth",
            ArgKind::Path,
            "tokens.toml enabling per-token submit quotas (401/429)",
        ),
        ArgSpec::new(
            "read-timeout-ms",
            ArgKind::U64,
            "socket read deadline in ms (slowloris 408; 0 disables)",
        )
        .with_default("10000"),
        ArgSpec::new(
            "write-timeout-ms",
            ArgKind::U64,
            "socket write deadline in ms (drops stalled consumers; 0 disables)",
        )
        .with_default("10000"),
        ArgSpec::new(
            "retain",
            ArgKind::U64,
            "spool GC: keep the newest N terminal job dirs (0 = keep all)",
        )
        .with_default("0"),
        ArgSpec::new(
            "retain-age-s",
            ArgKind::U64,
            "spool GC: evict terminal job dirs older than this age in s (0 = off)",
        )
        .with_default("0"),
        ArgSpec::new(
            "log-level",
            en(
                &["debug", "info", "warn", "error", "off"],
                "one of debug, info, warn, error, off",
            ),
            "stderr JSONL event-log level",
        )
        .with_default("warn"),
    ],
    examples: &["pom serve addr=0.0.0.0:7700 max-jobs=4 log-level=info"],
};

/// `pom wave-sweep`.
pub const WAVE_SWEEP: CommandSpec = CommandSpec {
    name: "wave-sweep",
    aliases: &[],
    summary: "idle-wave speed vs. coupling βκ (§5.1.1)",
    args: &[
        ArgSpec::new("n", ArgKind::U64, "oscillator count (min 8)").with_default("40"),
        ArgSpec::new("t_end", ArgKind::F64, "integration span").with_default("80"),
    ],
    examples: &["pom wave-sweep n=24 t_end=60"],
};

/// `pom sigma-sweep`.
pub const SIGMA_SWEEP: CommandSpec = CommandSpec {
    name: "sigma-sweep",
    aliases: &[],
    summary: "phase gap vs. interaction horizon σ (§5.2.2)",
    args: &[
        ArgSpec::new("n", ArgKind::U64, "oscillator count (min 4)").with_default("24"),
        ArgSpec::new("t_end", ArgKind::F64, "integration span").with_default("300"),
    ],
    examples: &["pom sigma-sweep n=12 t_end=200"],
};

/// Query parameters of `POST /jobs`.
pub const ROUTE_SUBMIT: RouteSpec = RouteSpec {
    method: "POST",
    path: "/jobs",
    summary: "submit a campaign spec (TOML/JSON body) → 201 with the job status",
    args: &[
        ArgSpec::new(
            "priority",
            en(&["high", "normal", "low"], "one of high, normal, low"),
            "scheduling band (weighted 4/2/1 dispatch)",
        )
        .with_default("normal"),
        ArgSpec::new(
            "deadline_ms",
            ArgKind::U64,
            "cancel the job this many ms after submit if still unfinished",
        ),
    ],
};

/// Query parameters of `GET /jobs/{id}/rows`.
pub const ROUTE_ROWS: RouteSpec = RouteSpec {
    method: "GET",
    path: "/jobs/{id}/rows",
    summary: "chunked JSONL result stream",
    args: &[ArgSpec::new(
        "follow",
        ArgKind::Bool,
        "tail the stream until the job quiesces",
    )
    .with_default("0")],
};

/// Query parameters of `GET /jobs/{id}/stats` (none).
pub const ROUTE_STATS: RouteSpec = RouteSpec {
    method: "GET",
    path: "/jobs/{id}/stats",
    summary: "per-job point-latency summary (count, p50/p90/p99)",
    args: &[],
};

/// Informational routes (no validated query surface).
pub(crate) const ROUTE_HEALTHZ: RouteSpec = RouteSpec {
    method: "GET",
    path: "/healthz",
    summary: "liveness probe",
    args: &[],
};

/// `GET /metrics`.
pub(crate) const ROUTE_METRICS: RouteSpec = RouteSpec {
    method: "GET",
    path: "/metrics",
    summary: "Prometheus text exposition of the global registry",
    args: &[],
};

/// `GET /schema`.
pub(crate) const ROUTE_SCHEMA: RouteSpec = RouteSpec {
    method: "GET",
    path: "/schema",
    summary: "this registry as JSON (commands, routes, spec sections)",
    args: &[],
};

/// `GET /jobs`.
pub(crate) const ROUTE_LIST: RouteSpec = RouteSpec {
    method: "GET",
    path: "/jobs",
    summary: "status of every job",
    args: &[],
};

/// `GET /jobs/{id}`.
pub(crate) const ROUTE_STATUS: RouteSpec = RouteSpec {
    method: "GET",
    path: "/jobs/{id}",
    summary: "status of one job",
    args: &[],
};

/// `POST /jobs/{id}/cancel`.
pub(crate) const ROUTE_CANCEL: RouteSpec = RouteSpec {
    method: "POST",
    path: "/jobs/{id}/cancel",
    summary: "stop scheduling the job, keep partial results",
    args: &[],
};

/// `POST /jobs/{id}/resume`.
pub(crate) const ROUTE_RESUME: RouteSpec = RouteSpec {
    method: "POST",
    path: "/jobs/{id}/resume",
    summary: "re-queue a cancelled job's missing points",
    args: &[],
};

/// `POST /shutdown`.
pub(crate) const ROUTE_SHUTDOWN: RouteSpec = RouteSpec {
    method: "POST",
    path: "/shutdown",
    summary: "graceful daemon stop (drain in-flight, flush)",
    args: &[],
};

/// `[campaign]` (both workloads).
pub(crate) const SEC_CAMPAIGN: SectionSpec = SectionSpec {
    name: "campaign",
    workload: "both",
    keys: &[
        ArgSpec::new("name", ArgKind::Str, "campaign name (reports and logs)"),
        ArgSpec::new(
            "seed",
            ArgKind::U64,
            "master RNG seed; every point derives from it",
        ),
        ArgSpec::new(
            "workload",
            en(&["model", "mpisim"], "one of model, mpisim"),
            "oscillator model or MPI simulator substrate",
        ),
        ArgSpec::new(
            "observables",
            ArgKind::StrList,
            "observable columns of each result row",
        ),
        ArgSpec::new(
            "replicas",
            ArgKind::U64,
            "lockstep replicas per grid point (model only)",
        ),
    ],
};

/// `[model]`.
pub(crate) const SEC_MODEL: SectionSpec = SectionSpec {
    name: "model",
    workload: "model",
    keys: &[
        ArgSpec::new("n", ArgKind::U64, "oscillator count (min 2)"),
        ArgSpec::new(
            "potential",
            en(
                &["tanh", "desync", "sin", "kuramoto"],
                "one of tanh, desync, sin, kuramoto",
            ),
            "interaction potential",
        ),
        ArgSpec::new(
            "sigma",
            ArgKind::F64,
            "interaction horizon σ (desync potential)",
        ),
        ArgSpec::new("tcomp", ArgKind::F64, "compute-phase duration"),
        ArgSpec::new("tcomm", ArgKind::F64, "communication-phase duration"),
        ArgSpec::new("coupling", ArgKind::F64, "explicit coupling v_p"),
        ArgSpec::new("kappa", ArgKind::F64, "distance weight κ"),
        ArgSpec::new(
            "norm",
            en(&["degree", "n"], "one of degree, n"),
            "coupling normalization",
        ),
        ArgSpec::new(
            "kernel",
            en(&["exact", "sincos"], "one of exact, sincos"),
            "RHS kernel selection; streamed mean_r/min_r/max_gap follow it",
        ),
        ArgSpec::new("rhs_threads", ArgKind::U64, "intra-point RHS threads"),
    ],
};

/// `[topology]`.
pub(crate) const SEC_TOPOLOGY: SectionSpec = SectionSpec {
    name: "topology",
    workload: "model",
    keys: &[
        ArgSpec::new(
            "kind",
            en(
                &["ring", "chain", "all", "all-to-all", "grid2d"],
                "one of ring, chain, all-to-all, grid2d",
            ),
            "communication topology",
        ),
        ArgSpec::new("distances", ArgKind::IntList, "neighbor distance offsets"),
        ArgSpec::new("nx", ArgKind::U64, "grid2d width (nx*ny = model.n)"),
        ArgSpec::new("ny", ArgKind::U64, "grid2d height (nx*ny = model.n)"),
        ArgSpec::new("periodic", ArgKind::Bool, "grid2d wraparound"),
    ],
};

/// `[init]`.
pub(crate) const SEC_INIT: SectionSpec = SectionSpec {
    name: "init",
    workload: "model",
    keys: &[
        ArgSpec::new(
            "kind",
            en(
                &["sync", "spread", "wavefront"],
                "one of sync, spread, wavefront",
            ),
            "initial condition",
        ),
        ArgSpec::new(
            "amplitude",
            ArgKind::F64,
            "random-spread amplitude (kind=spread)",
        ),
        ArgSpec::new("slope", ArgKind::F64, "wavefront slope (kind=wavefront)"),
        ArgSpec::new("seed", ArgKind::U64, "spread-init seed override"),
    ],
};

/// `[noise]` (both workloads).
pub(crate) const SEC_NOISE: SectionSpec = SectionSpec {
    name: "noise",
    workload: "both",
    keys: &[
        ArgSpec::new("sigma", ArgKind::F64, "white-jitter amplitude"),
        ArgSpec::new("seed", ArgKind::U64, "noise seed override"),
    ],
};

/// `[inject]` for the model workload.
pub(crate) const SEC_INJECT_MODEL: SectionSpec = SectionSpec {
    name: "inject",
    workload: "model",
    keys: &[
        ArgSpec::new("rank", ArgKind::U64, "rank receiving the one-off delay"),
        ArgSpec::new("at", ArgKind::F64, "delay window start"),
        ArgSpec::new("len", ArgKind::F64, "delay window length"),
        ArgSpec::new("extra", ArgKind::F64, "extra phase lag per window"),
    ],
};

/// `[inject]` for the mpisim workload.
pub(crate) const SEC_INJECT_MPISIM: SectionSpec = SectionSpec {
    name: "inject",
    workload: "mpisim",
    keys: &[
        ArgSpec::new("rank", ArgKind::U64, "rank receiving the one-off delay"),
        ArgSpec::new("iteration", ArgKind::U64, "iteration the delay lands on"),
        ArgSpec::new("extra_seconds", ArgKind::F64, "injected extra wall time"),
    ],
};

/// `[sim]`.
pub(crate) const SEC_SIM: SectionSpec = SectionSpec {
    name: "sim",
    workload: "model",
    keys: &[
        ArgSpec::new("t_end", ArgKind::F64, "integration span"),
        ArgSpec::new("samples", ArgKind::U64, "recorded trajectory samples"),
        ArgSpec::new(
            "solver",
            en(&["auto", "dopri5", "rk4"], "one of auto, dopri5, rk4"),
            "ODE solver selection",
        ),
        ArgSpec::new("h", ArgKind::F64, "fixed RK4 step (solver=rk4)"),
    ],
};

/// `[wave]` (both workloads).
pub(crate) const SEC_WAVE: SectionSpec = SectionSpec {
    name: "wave",
    workload: "both",
    keys: &[
        ArgSpec::new("threshold", ArgKind::F64, "wave-front detection threshold"),
        ArgSpec::new("source", ArgKind::U64, "wave source rank override"),
        ArgSpec::new(
            "max_distance",
            ArgKind::U64,
            "fit range cap (ranks from the source)",
        ),
    ],
};

/// `[mpisim]`.
pub(crate) const SEC_MPISIM: SectionSpec = SectionSpec {
    name: "mpisim",
    workload: "mpisim",
    keys: &[
        ArgSpec::new("n", ArgKind::U64, "process count (min 2)"),
        ArgSpec::new("iterations", ArgKind::U64, "bulk-synchronous iterations"),
        ArgSpec::new(
            "kernel",
            en(
                &[
                    "pisolver",
                    "stream",
                    "stream_triad",
                    "schoenauer",
                    "schoenauer_slow",
                ],
                "one of pisolver, stream, schoenauer",
            ),
            "compute kernel between communications",
        ),
        ArgSpec::new(
            "work_seconds",
            ArgKind::F64,
            "nominal compute time per iteration",
        ),
        ArgSpec::new("distances", ArgKind::IntList, "neighbor exchange offsets"),
        ArgSpec::new(
            "protocol",
            en(&["eager", "rendezvous"], "one of eager, rendezvous"),
            "point-to-point protocol",
        ),
        ArgSpec::new("message_bytes", ArgKind::U64, "message size override"),
        ArgSpec::new("allreduce_every", ArgKind::U64, "global allreduce stride"),
    ],
};

/// The whole toolkit, in help/docs order.
pub(crate) static TOOLKIT: Registry = Registry {
    commands: &[
        POTENTIALS,
        SCALING,
        FIG2,
        SIMULATE,
        SWEEP,
        SERVE,
        WAVE_SWEEP,
        SIGMA_SWEEP,
        HELP,
    ],
    routes: &[
        ROUTE_HEALTHZ,
        ROUTE_METRICS,
        ROUTE_SCHEMA,
        ROUTE_SUBMIT,
        ROUTE_LIST,
        ROUTE_STATUS,
        ROUTE_ROWS,
        ROUTE_STATS,
        ROUTE_CANCEL,
        ROUTE_RESUME,
        ROUTE_SHUTDOWN,
    ],
    sections: &[
        SEC_CAMPAIGN,
        SEC_MODEL,
        SEC_TOPOLOGY,
        SEC_INIT,
        SEC_NOISE,
        SEC_INJECT_MODEL,
        SEC_INJECT_MPISIM,
        SEC_SIM,
        SEC_WAVE,
        SEC_MPISIM,
    ],
};
