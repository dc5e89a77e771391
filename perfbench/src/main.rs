//! The repository benchmark: the paper's kernels, the fused pipeline, the
//! pool and the stream engine, measured end to end and, in a separate
//! traced run, layer by layer. A workload is a frame size; every run goes
//! through the same three phases at that size: the Table III protocol
//! (HAND against AUTO), the paths phase (serial, two-pass, pooled) and the
//! stream phase (closed and open loop), in `CYCLES` cycles of one chunk of
//! each.
//!
//! ```text
//! perfbench --workload <vga|1mp> --seed <n>
//!           --seconds <s> --trace <0|1> [--arm <failpoint>:<delay_ms>:<rate>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--arm` is for the sensitivity check only: it arms a `faultline`
//! delay failpoint for the measurement, not for set-up, and the run is
//! labelled as armed. The last
//! line of standard output is the result object; the exit code is nonzero
//! when any output is not bit-exact. See README.md for every metric.

mod host;
mod kernels;
mod paper;
mod report;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use simdbench_core::stream::frame_checksum;

use host::Host;
use kernels::{image_seed, Frame, Refs, IMAGES};
use paper::{Kern, Paths, Table3};
use report::{geomean, median, Report};
use stream::{St, Stream};
use trace::Tracer;

/// Set-ups timed in each batch: one batch before the measurement, one
/// between each two of its cycles, and one after it.
const SETUP_REPS: usize = 3;

/// Cycles of a run. Each runs one chunk of every phase, so that a slow
/// spell of the shared host, which lasts seconds, hits part of every
/// metric's samples rather than all of one metric's. In a traced run the
/// first half of the cycles is untraced and the second half traced.
pub const CYCLES: usize = 4;

/// Shares of `--seconds` for the three phases of every run. The paths
/// phase has no end-to-end metric, so it gets the least time.
pub const TABLE3_SHARE: f64 = 0.45;
pub const PATHS_SHARE: f64 = 0.1;
pub const STREAM_SHARE: f64 = 0.45;

/// A workload: the frame size every phase runs at, and the stream's
/// open-loop rate, about a third of its closed-loop throughput at that size
/// when the benchmark was defined.
pub struct Workload {
    name: &'static str,
    dims: (usize, usize),
    open_rate: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "vga",
        dims: (640, 480),
        open_rate: 400.0,
    },
    Workload {
        name: "1mp",
        dims: (1280, 960),
        open_rate: 160.0,
    },
];

pub struct Arm {
    failpoint: String,
    delay_ms: u64,
    rate: f64,
}

pub struct Run {
    pub workload: &'static str,
    pub dims: (usize, usize),
    pub open_rate: f64,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host: Host,
    arm: Option<Arm>,
}

impl Run {
    /// `Instant` at which a phase of `share` of the run's seconds ends.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// Set-up times of one run: per phase (inputs, references, engine) and in
/// total.
#[derive(Default)]
struct SetupTimes {
    phases: [Vec<f64>; 3],
    totals: Vec<f64>,
}

impl SetupTimes {
    /// Runs `build` `SETUP_REPS` times, records its times, and returns the
    /// last state. Each state is freed before the next is built: teardown
    /// is not set-up.
    fn repeat<S>(&mut self, build: impl Fn() -> (S, [f64; 3])) -> S {
        let mut state = None;
        for _ in 0..SETUP_REPS {
            drop(state.take());
            let (s, times) = build();
            for (v, t) in self.phases.iter_mut().zip(times) {
                v.push(t);
            }
            self.totals.push(times.iter().sum());
            state = Some(s);
        }
        state.expect("SETUP_REPS is at least one")
    }
}

/// What one run measures.
struct State {
    kern: Kern,
    stream: St,
}

/// Set-up: the seeded images, their scalar references (and the stream's
/// reference checksums), then the engines with one warm-up round each.
fn setup(run: &Run) -> (State, [f64; 3]) {
    let (w, h) = run.dims;
    let t = Instant::now();
    let frames: Vec<Frame> = (0..IMAGES)
        .map(|i| Frame::new(w, h, image_seed(run.seed, i as u64)))
        .collect();
    let inputs_s = secs(t);
    let t = Instant::now();
    let refs: Vec<Refs> = frames.iter().map(Refs::compute).collect();
    let want = refs.iter().map(|r| frame_checksum(r.gaussian())).collect();
    let reference_s = secs(t);
    let t = Instant::now();
    let gray = frames.iter().map(|f| f.gray.clone()).collect();
    let state = State {
        kern: Kern::new(run, frames, refs),
        stream: St::new(run, gray, want),
    };
    (state, [inputs_s, reference_s, secs(t)])
}

/// Index of the samples a chunk adds to: 0 untraced, 1 traced.
pub fn mode(tracer: &Tracer) -> usize {
    usize::from(tracer.on())
}

/// The cycles of the three phases, with `between` called, `obs` off,
/// between each two cycles. In a traced run, tracing and `obs` are on from
/// halfway. `trace.overhead` is the geometric mean of the phases' traced ÷
/// untraced ratios.
fn measure(
    run: &Run,
    mut st: State,
    report: &mut Report,
    tracer: &mut Tracer,
    mut between: impl FnMut(),
) {
    report.fact("inputs", st.kern.describe(run));
    report.fact("stream", st.stream.describe(run));
    let (mut table3, mut paths, mut stream) =
        (Table3::default(), Paths::default(), Stream::default());
    for c in 0..CYCLES {
        if c > 0 {
            obs::set_enabled(false);
            between();
        }
        if run.trace && c == CYCLES / 2 {
            tracer.set_on(true);
            obs::reset();
        }
        obs::set_enabled(tracer.on());
        table3.chunk(run, &mut st.kern, report, tracer);
        paths.chunk(run, &mut st.kern, report, tracer);
        stream.chunk(run, &mut st.stream, report, tracer);
    }
    tracer.set_on(false);
    obs::set_enabled(false);
    let overheads = [
        table3.finish(run, &st.kern, report),
        paths.finish(run, &st.kern, report),
        stream.finish(run, st.stream, report, tracer),
    ];
    if run.trace {
        report.add("trace.overhead", geomean(&overheads), "ratio");
    }
}

/// Arms `--arm`'s failpoint, if any.
fn arm(run: &Run) {
    if let Some(a) = &run.arm {
        faultline::arm(
            &a.failpoint,
            faultline::Action::Delay(a.delay_ms),
            a.rate,
            run.seed,
        );
    }
}

/// Runs one workload: a batch of set-ups, the measurement with a batch
/// between each two of its cycles, then a last batch. `--arm` arms its
/// failpoint for the measurement only. `setup_s` is the median of all
/// set-ups. Slowdowns of the shared host last for seconds and catch every
/// set-up of a batch, so batches spread over the run let one slow spell
/// move the median less.
fn bench(run: &Run, report: &mut Report, tracer: &mut Tracer) {
    let mut times = SetupTimes::default();
    let state = times.repeat(|| setup(run));
    if let Some(a) = &run.arm {
        println!(
            "# ARMED sensitivity run: {} delay {} ms at rate {} (not a measured run)",
            a.failpoint, a.delay_ms, a.rate
        );
    }
    arm(run);
    measure(run, state, report, tracer, || {
        faultline::disarm_all();
        drop(times.repeat(|| setup(run)));
        arm(run);
    });
    faultline::disarm_all();
    obs::set_enabled(false);
    drop(times.repeat(|| setup(run)));
    if !run.trace {
        report.add_n("setup_s", median(&times.totals), "s", times.totals.len());
    } else {
        for (name, v) in ["setup.inputs_s", "setup.reference_s", "setup.engine_s"]
            .iter()
            .zip(&times.phases)
        {
            report.add_n(*name, median(v), "s", v.len());
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn parse_args() -> Result<Run, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut arm) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--arm" => {
                let parts: Vec<&str> = value.split(':').collect();
                let [failpoint, delay, rate] = parts[..] else {
                    return Err(format!(
                        "--arm wants <failpoint>:<delay_ms>:<rate>, got {value}"
                    ));
                };
                let rate: f64 = rate.parse().map_err(|e| format!("--arm rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("--arm rate {rate} out of [0, 1]"));
                }
                arm = Some(Arm {
                    failpoint: failpoint.to_string(),
                    delay_ms: delay.parse().map_err(|e| format!("--arm delay: {e}"))?,
                    rate,
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    Ok(Run {
        workload: w.name,
        dims: w.dims,
        open_rate: w.open_rate,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        host: Host::probe(),
        arm,
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    report.fact("host", run.host.describe());
    report.fact(
        "run",
        format!(
            "workload={} seed={} seconds={} trace={}",
            run.workload, run.seed, run.seconds, run.trace as u8
        ),
    );
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    bench(&run, &mut report, &mut tracer);
    if run.trace {
        let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
        report.add("failed_ratio", failed_ratio, "ratio");
        for (layer, s) in tracer.self_time() {
            report.add(format!("trace.{layer}.self_s"), s, "s");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", run.workload, run.seed));
        match tracer.write(&path, &report.facts_json()) {
            Ok(()) => report.fact(
                "trace_file",
                format!("{} ({} spans)", path.display(), tracer.len()),
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    report.fact("wall_s", secs(started));
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} outputs were not bit-exact against the scalar reference",
            report.mismatches
        );
        ExitCode::FAILURE
    }
}
