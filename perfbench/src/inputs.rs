//! Workloads: which programs each one generates, and the set-up that turns
//! them into `.ftb` bytes, pre-decoded blocks and checked references.

use fasttrack::{warnings_to_json, Detector, FastTrack, Warning};
use ft_trace::gen::{self, GenConfig};
use ft_trace::{EventBlock, FtbReader, HbOracle, Trace, VarId, DEFAULT_BLOCK_EVENTS};
use ft_workloads::eclipse::{self, EclipseOp};
use ft_workloads::{build, Scale, BENCHMARKS};

/// The Table 1 compute-bound programs: sync is under 1% of their events.
const COMPUTE: [&str; 9] = [
    "crypt",
    "lufact",
    "moldyn",
    "montecarlo",
    "series",
    "sor",
    "sparse",
    "colt",
    "raja",
];

/// The sync-floor programs: sync is 5–67% of their events.
const SYNC_FLOOR: [&str; 5] = ["tsp", "elevator", "philo", "hedc", "jbb"];

/// Events per down-scaled generator copy checked against the HB oracle
/// (the oracle compares every conflicting pair, so it stays small).
const ORACLE_OPS: usize = 3_000;

/// Short racy traces uploaded by the serve workload.
const RACY_TRACES: u64 = 32;

/// Events per analysed program of the `ftb-*` workloads.
const FTB_OPS: usize = 40_000;

/// Copies of each `ftb-*` generator, each from a seed of its own. A
/// program's shape follows its seed, and one copy per generator left the
/// slowdowns moving by up to 0.08 of themselves from seed to seed;
/// several copies average that out.
const FTB_COPIES: u64 = 3;

/// The benchmark's workloads; see `perfbench/README.md` for why each exists.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Compute-bound programs: decode and the access fast path carry the time.
    FtbCompute,
    /// Sync-floor programs and the Eclipse operations, with planted races.
    FtbSyncmix,
    /// Short racy traces, uploaded by two clients in a closed loop.
    ServeClosed2,
}

/// How large the generated programs are.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// A twentieth of them, for the self-tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FtbCompute,
        Workload::FtbSyncmix,
        Workload::ServeClosed2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FtbCompute => "ftb-compute",
            Workload::FtbSyncmix => "ftb-syncmix",
            Workload::ServeClosed2 => "serve-closed2",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generators of the programs analysed end to end, their size, and
    /// how many copies of each are generated, each from a seed of its own.
    fn analyze_set(self) -> (Vec<Gen>, usize, u64) {
        match self {
            Workload::FtbCompute => (COMPUTE.map(Gen::Bench).to_vec(), FTB_OPS, FTB_COPIES),
            Workload::FtbSyncmix => (sync_mix(), FTB_OPS, FTB_COPIES),
            Workload::ServeClosed2 => (racy(), 4_000, 1),
        }
    }

    /// The generators of the programs uploaded as serve sessions, and their
    /// size; `None` when those are the analysed programs themselves.
    fn session_set(self) -> Option<(Vec<Gen>, usize)> {
        match self {
            Workload::FtbCompute => Some((COMPUTE.map(Gen::Bench).to_vec(), 8_000)),
            Workload::FtbSyncmix => Some((sync_mix(), 8_000)),
            Workload::ServeClosed2 => None,
        }
    }

    /// Share of the measured seconds each phase gets: rounds, serve. Each
    /// workload weights the path it is about.
    pub fn shares(self) -> [f64; 2] {
        match self {
            Workload::FtbCompute | Workload::FtbSyncmix => [0.6, 0.4],
            Workload::ServeClosed2 => [0.08, 0.92],
        }
    }

    /// Timed sessions the serve phase must reach before it may end. The
    /// serve workload needs a thousand, so that at least ten session times
    /// lie beyond the 99th percentile; the others report whatever their
    /// serve share yields.
    fn min_sessions(self, size: Size) -> usize {
        match (self, size) {
            (Workload::ServeClosed2, Size::Full) => 1_000,
            _ => 20,
        }
    }
}

fn sync_mix() -> Vec<Gen> {
    let mut g: Vec<Gen> = SYNC_FLOOR.map(Gen::Bench).to_vec();
    g.extend(EclipseOp::ALL.map(Gen::Eclipse));
    g
}

fn racy() -> Vec<Gen> {
    (0..RACY_TRACES).map(Gen::Racy).collect()
}

/// One trace generator.
#[derive(Copy, Clone, Debug)]
enum Gen {
    /// A Table 1 benchmark simulation.
    Bench(&'static str),
    /// An Eclipse operation.
    Eclipse(EclipseOp),
    /// The random generator with racy variables mixed in.
    Racy(u64),
}

impl Gen {
    fn name(self) -> String {
        match self {
            Gen::Bench(n) => n.to_string(),
            Gen::Eclipse(op) => format!("eclipse:{}", op.name()),
            Gen::Racy(i) => format!("racy{i}"),
        }
    }

    fn build(self, ops: usize, seed: u64) -> Trace {
        match self {
            Gen::Bench(n) => build(n, Scale { ops }, seed),
            Gen::Eclipse(op) => eclipse::build(op, Scale { ops }, seed),
            Gen::Racy(i) => gen::generate(
                &GenConfig {
                    ops,
                    ..GenConfig::default().with_races(0.05)
                },
                seed.wrapping_mul(RACY_TRACES).wrapping_add(i),
            ),
        }
    }

    /// The races planted in the generator, where it plants a fixed number.
    fn planted_races(self) -> Option<usize> {
        match self {
            Gen::Bench(n) => BENCHMARKS
                .iter()
                .find(|b| b.name == n)
                .map(|b| b.expected_races),
            Gen::Eclipse(op) => Some(op.real_races()),
            Gen::Racy(_) => None,
        }
    }
}

/// One generated program with everything the phases need.
pub struct Program {
    /// Generator name.
    pub name: String,
    /// Events in the trace.
    pub events: u64,
    /// The trace as in-memory `.ftb` bytes.
    pub ftb: Vec<u8>,
    /// The bytes decoded once into blocks, with each block's first index.
    pub blocks: Vec<(usize, EventBlock)>,
    /// FASTTRACK's warnings from an in-memory `FastTrack::run`.
    pub reference: Vec<Warning>,
    /// `reference` rendered as the serve report renders warnings.
    pub reference_json: String,
    /// The variables `reference` names, sorted.
    pub race_vars: Vec<VarId>,
}

impl Program {
    fn new(name: String, trace: &Trace) -> Result<Program, String> {
        let ftb = trace
            .to_ftb()
            .map_err(|e| format!("{name}: encoding .ftb: {e}"))?;
        let mut reader =
            FtbReader::new(&ftb[..]).map_err(|e| format!("{name}: reading .ftb header: {e}"))?;
        let mut blocks = Vec::new();
        let mut base = 0;
        loop {
            let mut block = EventBlock::with_capacity(DEFAULT_BLOCK_EVENTS);
            let n = reader
                .read_block(&mut block, DEFAULT_BLOCK_EVENTS)
                .map_err(|e| format!("{name}: decoding .ftb: {e}"))?;
            if n == 0 {
                break;
            }
            blocks.push((base, block));
            base += n;
        }
        let mut ft = FastTrack::new();
        ft.run(trace);
        let reference = ft.warnings().to_vec();
        Ok(Program {
            events: trace.len() as u64,
            ftb,
            blocks,
            reference_json: warnings_to_json(&reference),
            race_vars: race_vars(&reference),
            reference,
            name,
        })
    }
}

/// The sorted, distinct variables a warning list names.
pub fn race_vars(warnings: &[Warning]) -> Vec<VarId> {
    let mut vars: Vec<VarId> = warnings.iter().map(|w| w.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars
}

/// Everything set-up produces.
pub struct Inputs {
    /// Programs of the rounds: run through every detector and analysed
    /// end to end.
    pub analyze: Vec<Program>,
    /// Programs uploaded as sessions, when they differ from `analyze`.
    session_only: Vec<Program>,
    /// Timed sessions the serve phase must reach before it may end.
    pub min_sessions: usize,
    /// Set-up checks made.
    pub checks: u64,
    /// Descriptions of the set-up checks that failed.
    pub failures: Vec<String>,
}

impl Inputs {
    /// Programs uploaded as sessions.
    pub fn sessions(&self) -> &[Program] {
        if self.session_only.is_empty() {
            &self.analyze
        } else {
            &self.session_only
        }
    }

    /// Programs whose reference a test may tamper with.
    #[cfg(test)]
    pub fn programs_mut(&mut self) -> impl Iterator<Item = &mut Program> {
        self.analyze.iter_mut().chain(self.session_only.iter_mut())
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Generates, encodes and pre-decodes the workload's programs and checks
/// them: FASTTRACK must agree with the HB oracle on a down-scaled copy of
/// every program (same generator and seed), and find exactly the planted
/// races at full size.
pub fn setup(workload: Workload, seed: u64, size: Size) -> Inputs {
    let scaled = |ops: usize| match size {
        Size::Full => ops,
        Size::Tiny => (ops / 20).max(1_500),
    };
    let mut inputs = Inputs {
        analyze: Vec::new(),
        session_only: Vec::new(),
        min_sessions: workload.min_sessions(size),
        checks: 0,
        failures: Vec::new(),
    };
    let (analyze_gens, analyze_ops, copies) = workload.analyze_set();
    let mut sets = vec![(analyze_gens, scaled(analyze_ops), copies, false)];
    if let Some((gens, ops)) = workload.session_set() {
        sets.push((gens, scaled(ops), 1, true));
    }
    let mut checked: Vec<String> = Vec::new();
    for (gens, ops, copies, session_only) in sets {
        for (g, copy) in gens
            .into_iter()
            .flat_map(|g| (0..copies).map(move |c| (g, c)))
        {
            let (name, seed) = match copies {
                1 => (g.name(), seed),
                _ => (
                    format!("{}/{copy}", g.name()),
                    seed.wrapping_mul(copies).wrapping_add(copy),
                ),
            };
            if !checked.contains(&name) {
                let small = g.build(ORACLE_OPS, seed);
                let mut ft = FastTrack::new();
                ft.run(&small);
                let oracle = HbOracle::analyze(&small).race_vars();
                let found = race_vars(ft.warnings());
                inputs.check(found == oracle, || {
                    format!("{name}: FASTTRACK race vars {found:?} != HB oracle {oracle:?}")
                });
                checked.push(name.clone());
            }
            let trace = g.build(ops, seed);
            match Program::new(name.clone(), &trace) {
                Ok(p) => {
                    if let Some(planted) = g.planted_races() {
                        let found = p.reference.len();
                        inputs.check(found == planted, || {
                            format!("{name}: {found} races at {ops} events, {planted} planted")
                        });
                    }
                    if session_only {
                        inputs.session_only.push(p);
                    } else {
                        inputs.analyze.push(p);
                    }
                }
                Err(e) => inputs.check(false, || e),
            }
        }
    }
    inputs
}
