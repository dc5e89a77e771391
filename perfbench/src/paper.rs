//! The two kernel phases of every run: the paper's Table III protocol
//! (single thread, HAND against AUTO, through the direct entry points) and
//! the paths phase (HAND serial, two-pass and pooled, plus a copy
//! reference and empty pool dispatches). Each runs in chunks, one per
//! cycle of the run, and keeps the samples of untraced and traced chunks
//! apart.

use std::hint::black_box;
use std::time::Instant;

use rayon::prelude::*;
use simdbench_core::Engine;

use crate::kernels::{
    direct, image_seed, run, span_name, Exec, Frame, Kernel, Outputs, Path, Refs, AUTO, HAND,
    IMAGES, KERNELS, STENCILS, VGA,
};
use crate::report::{geomean, median, percentile, Report};
use crate::trace::{Tracer, POOL_COUNTERS};
use crate::{mode, secs, Run, CYCLES, PATHS_SHARE, TABLE3_SHARE};

/// Calls per batch at VGA for `[HAND, AUTO]`, per kernel, sized so that
/// every batch takes about 10 ms on the host the benchmark was defined on.
/// Larger frames scale them down by their pixel count.
const VGA_BATCH: [[usize; 2]; 5] = [[120, 5], [250, 500], [15, 5], [80, 20], [25, 10]];
/// Empty `par_iter` calls timed per paths round (`pool.dispatch_us_p50`).
const DISPATCH_CALLS: usize = 20;

fn us(t0: Instant, t1: Instant) -> f64 {
    (t1 - t0).as_secs_f64() * 1e6
}

/// Mpx/s of a call on a `w`×`h` image that took `us` µs.
fn mpx_s((w, h): (usize, usize), us: f64) -> f64 {
    (w * h) as f64 / us
}

/// Per-call times and per-batch mean call times, in µs.
#[derive(Default, Clone)]
struct Samples {
    calls: Vec<f64>,
    batches: Vec<f64>,
}

/// Runs one call of kernel `k`, records its span and time, and checks its
/// output. The output is first poisoned, outside the timed part, so that
/// the call passes only if it writes every pixel itself.
#[allow(clippy::too_many_arguments)]
fn timed_call(
    k: Kernel,
    path: Path,
    refs: &Refs,
    id: u64,
    out: &mut Outputs,
    tracer: &mut Tracer,
    report: &mut Report,
    call: impl FnOnce(&mut Outputs),
) -> f64 {
    refs.poison(k, out);
    let t0 = Instant::now();
    call(out);
    let t1 = Instant::now();
    tracer.leaf(span_name(k, path), t0, t1, id);
    let ok = refs.matches(k, out);
    tracer.leaf("check.compare", t1, Instant::now(), id);
    report.check(ok);
    us(t0, t1)
}

/// Traced ÷ untraced median round time of a phase, or 1 in an untraced
/// run.
fn overhead(run: &Run, rounds: &[Vec<f64>; 2]) -> f64 {
    if run.trace {
        median(&rounds[1]) / median(&rounds[0])
    } else {
        1.0
    }
}

/// Everything the two kernel phases use: the seeded images, their
/// references, one output set, the pool and scratch of the fused and
/// pooled paths, and the copy buffer.
pub struct Kern {
    dims: (usize, usize),
    pub frames: Vec<Frame>,
    refs: Vec<Refs>,
    out: Outputs,
    exec: Exec,
    copy_dst: Vec<f32>,
    /// Table III calls per batch, `[kernel][HAND, AUTO]`.
    batch: [[usize; 2]; 5],
    /// Scratch arena allocations once warm-up has filled it.
    warm_allocs: usize,
}

impl Kern {
    /// Builds the engine state around the inputs and references and runs
    /// one warm-up round of every path, which fills the scratch arenas and
    /// faults in every buffer.
    pub fn new(run: &Run, frames: Vec<Frame>, refs: Vec<Refs>) -> Kern {
        let (w, h) = run.dims;
        let scale = (VGA.0 * VGA.1) as f64 / (w * h) as f64;
        let mut kern = Kern {
            dims: run.dims,
            copy_dst: vec![0.0; frames[0].float.as_slice().len()],
            out: Outputs::new(w, h),
            exec: Exec::new(w, run.host.nproc),
            batch: VGA_BATCH.map(|b| b.map(|n| ((n as f64 * scale).ceil() as usize).max(1))),
            frames,
            refs,
            warm_allocs: 0,
        };
        paths_round(
            &mut kern,
            0,
            None,
            &mut Tracer::new(false),
            &mut Report::new(),
        );
        kern.warm_allocs = kern.exec.scratch.fresh_allocs();
        kern
    }

    /// A fact line on the inputs and working sets, for the report.
    pub fn describe(&self, run: &Run) -> String {
        let (w, h) = self.dims;
        format!(
            "{IMAGES} images {w}x{h} (seeds from --seed {}), {} bytes of u8+f32 sources; \
             largest per-call working set {} bytes (convert f32 in + i16 out); copy buffer {} \
             bytes; Table III batches {:?}; AUTO={AUTO:?} HAND={HAND:?}; pool width {}",
            run.seed,
            self.frames.iter().map(Frame::bytes).sum::<usize>(),
            w * h * 6,
            std::mem::size_of_val(self.copy_dst.as_slice()),
            self.batch,
            run.host.nproc,
        )
    }
}

// ---------------------------------------------------------------------------
// Table III: single thread, HAND against AUTO
// ---------------------------------------------------------------------------

/// `[kernel][0 = HAND, 1 = AUTO]`.
type EngineSamples = [[Samples; 2]; 5];

/// Table III rounds until `until`, added to `samples` and `rounds`.
fn table3_rounds(
    st: &mut Kern,
    until: Instant,
    samples: &mut EngineSamples,
    rounds: &mut Vec<f64>,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    while Instant::now() < until {
        let r = rounds.len() as u64;
        let start = Instant::now();
        tracer.open("bench.round", r);
        for k in KERNELS {
            let order = if r.is_multiple_of(2) {
                [AUTO, HAND]
            } else {
                [HAND, AUTO]
            };
            for engine in order {
                let e = usize::from(engine == AUTO);
                let s = &mut samples[k.index()][e];
                let n = st.batch[k.index()][e];
                let mut sum = 0.0;
                for c in 0..n {
                    let img = c % IMAGES;
                    let frame = &st.frames[img];
                    let t = timed_call(
                        k,
                        Path::Direct,
                        &st.refs[img],
                        img as u64,
                        &mut st.out,
                        tracer,
                        report,
                        |out| direct(k, frame, out, engine),
                    );
                    s.calls.push(t);
                    sum += t;
                }
                s.batches.push(sum / n as f64);
            }
        }
        tracer.close();
        rounds.push(secs(start));
    }
}

/// The paper's Table III protocol: each round runs the five kernels
/// through their direct (two-pass) entry points on one thread, AUTO and
/// HAND interleaved per kernel, alternating which goes first, cycling the
/// seeded images.
#[derive(Default)]
pub struct Table3 {
    /// Samples and round times of untraced and traced chunks.
    samples: [EngineSamples; 2],
    rounds: [Vec<f64>; 2],
}

impl Table3 {
    /// One chunk: `TABLE3_SHARE / CYCLES` of the run.
    pub fn chunk(&mut self, run: &Run, st: &mut Kern, report: &mut Report, tracer: &mut Tracer) {
        let m = mode(tracer);
        let until = run.deadline(TABLE3_SHARE / CYCLES as f64);
        table3_rounds(
            st,
            until,
            &mut self.samples[m],
            &mut self.rounds[m],
            tracer,
            report,
        );
    }

    /// Reports `hand_mpx_s` and `auto_mpx_s`, or the `kernel.*` layer
    /// metrics from the traced chunks when traced. Returns the phase's
    /// trace overhead.
    pub fn finish(self, run: &Run, st: &Kern, report: &mut Report) -> f64 {
        let overhead = overhead(run, &self.rounds);
        let samples = &self.samples[usize::from(run.trace)];
        table3_report(run, st, samples, report);
        overhead
    }
}

fn table3_report(run: &Run, st: &Kern, samples: &EngineSamples, report: &mut Report) {
    // The fastest batch, not the fastest tenth: single-thread L2-resident
    // kernels run at full speed whenever the other tenant of their core is
    // idle, and over ten runs the fastest batch spread least (13 % HAND,
    // 10 % AUTO, against 20 % for the fastest tenth and 32 % for the median).
    let rate = |s: &Samples| mpx_s(st.dims, percentile(&s.batches, 0.0));
    let hand: Vec<f64> = samples.iter().map(|s| rate(&s[0])).collect();
    let auto: Vec<f64> = samples.iter().map(|s| rate(&s[1])).collect();
    let batches = samples[0][0].batches.len();
    // The paper's speed-up, AUTO time over HAND time, from batches of the
    // same rounds: drift of the host cancels in the ratio.
    let speedup: Vec<f64> = samples
        .iter()
        .map(|[h, a]| median(&a.batches) / median(&h.batches))
        .collect();
    report.fact(
        "hand_auto",
        format!(
            "HAND:AUTO {:.3} (geomean; {})",
            geomean(&speedup),
            KERNELS
                .iter()
                .map(|k| format!("{} {:.3}", k.name(), speedup[k.index()]))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    if !run.trace {
        report.add_n("hand_mpx_s", geomean(&hand), "Mpx/s", batches);
        report.add_n("auto_mpx_s", geomean(&auto), "Mpx/s", batches);
        return;
    }
    for k in KERNELS {
        let [h, a] = &samples[k.index()];
        let name = k.name();
        report.add_n(
            format!("kernel.{name}.hand_us_p50"),
            median(&h.calls),
            "us",
            h.calls.len(),
        );
        report.add_n(
            format!("kernel.{name}.hand_us_p99"),
            percentile(&h.calls, 0.99),
            "us",
            h.calls.len(),
        );
        report.add_n(
            format!("kernel.{name}.auto_us_p50"),
            median(&a.calls),
            "us",
            a.calls.len(),
        );
        report.add_n(
            format!("kernel.{name}.hand_auto"),
            speedup[k.index()],
            "ratio",
            h.batches.len(),
        );
    }
    op_counts(run, report);
}

/// Exact SIMD op counts per pixel of each kernel's HAND loop, traced
/// through the simulated SSE2 and NEON engines on a strip 16 rows high.
fn op_counts(run: &Run, report: &mut Report) {
    let (w, h) = (run.dims.0, 16);
    let strip = Frame::new(w, h, image_seed(run.seed, IMAGES as u64));
    let mut out = Outputs::new(w, h);
    for k in KERNELS {
        for (engine, isa) in [(Engine::Sse2Sim, "sse2"), (Engine::NeonSim, "neon")] {
            let ((), mix) = op_trace::trace(|| direct(k, &strip, &mut out, engine));
            report.add(
                format!("kernel.{}.{isa}_ops_px", k.name()),
                mix.total() as f64 / (w * h) as f64,
                "ops/px",
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Paths: HAND serial, two-pass and pooled
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PathSamples {
    /// Per kernel: convert/threshold direct, stencils fused.
    serial: [Vec<f64>; 5],
    /// Per stencil (index into `STENCILS`): two-pass direct entry point.
    twopass: [Vec<f64>; 3],
    pooled: [Vec<f64>; 5],
    copy: Vec<f64>,
    dispatch: Vec<f64>,
    /// Counter deltas summed over traced rounds.
    bands: u64,
    pool: [u64; 5],
    rounds: usize,
}

fn serial_path(k: Kernel) -> Path {
    if STENCILS.contains(&k) {
        Path::Fused
    } else {
        Path::Direct
    }
}

/// One round of every path on image `r` mod `IMAGES`; `s` is `None`
/// during warm-up.
fn paths_round(
    st: &mut Kern,
    r: u64,
    mut s: Option<&mut PathSamples>,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let counting = tracer.on();
    let snap = || {
        if counting {
            Some(obs::snapshot())
        } else {
            None
        }
    };
    let img = r as usize % IMAGES;
    let Kern {
        frames,
        refs,
        out,
        exec,
        copy_dst,
        ..
    } = st;
    let (frame, refs) = (&frames[img], &refs[img]);
    let id = img as u64;
    tracer.open("bench.round", r);

    let before = snap();
    for k in KERNELS {
        let path = serial_path(k);
        let t = timed_call(k, path, refs, id, out, tracer, report, |out| {
            run(k, path, frame, out, HAND, exec)
        });
        if let Some(s) = s.as_deref_mut() {
            s.serial[k.index()].push(t);
        }
    }
    for (i, k) in STENCILS.into_iter().enumerate() {
        let path = Path::Direct;
        let t = timed_call(k, path, refs, id, out, tracer, report, |out| {
            run(k, path, frame, out, HAND, exec)
        });
        if let Some(s) = s.as_deref_mut() {
            s.twopass[i].push(t);
        }
    }
    let mid = snap();
    for k in KERNELS {
        let path = Path::Pooled;
        let t = timed_call(k, path, refs, id, out, tracer, report, |out| {
            run(k, path, frame, out, HAND, exec)
        });
        if let Some(s) = s.as_deref_mut() {
            s.pooled[k.index()].push(t);
        }
    }
    let after = snap();

    let src = frame.float.as_slice();
    let t0 = Instant::now();
    copy_dst.copy_from_slice(src);
    black_box(&mut *copy_dst);
    let t1 = Instant::now();
    tracer.leaf("mem.copy", t0, t1, id);

    let workers = exec.pool.current_num_threads();
    let mut dispatch = [0.0; DISPATCH_CALLS];
    exec.pool.install(|| {
        for d in &mut dispatch {
            let t0 = Instant::now();
            (0..workers).into_par_iter().for_each(|i| {
                black_box(i);
            });
            let t1 = Instant::now();
            *d = us(t0, t1);
        }
    });
    tracer.close();

    if let Some(s) = s {
        s.copy.push(us(t0, t1));
        s.dispatch.extend_from_slice(&dispatch);
        if let (Some(b), Some(m), Some(a)) = (before, mid, after) {
            let d = |x: &obs::Snapshot, y: &obs::Snapshot, c| y.counter(c) - x.counter(c);
            s.bands += d(&b, &a, obs::Counter::PipelineBands);
            for (total, (c, _)) in s.pool.iter_mut().zip(POOL_COUNTERS) {
                *total += d(&m, &a, c);
            }
            s.rounds += 1;
        }
    }
}

/// Paths rounds until `until`, added to `s` and `rounds`.
fn paths_rounds(
    st: &mut Kern,
    until: Instant,
    s: &mut PathSamples,
    rounds: &mut Vec<f64>,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    while Instant::now() < until {
        let start = Instant::now();
        paths_round(st, rounds.len() as u64, Some(&mut *s), tracer, report);
        rounds.push(secs(start));
    }
}

/// The paths phase, HAND only: each round runs each kernel serially (fused
/// for the three stencils, direct for convert and threshold), the stencils
/// once more through the two-pass path, each kernel pooled at width
/// `nproc`, a copy of one f32 frame as the bandwidth reference, and empty
/// pool dispatches. Every output is checked; only the traced run reports
/// (the `pipeline.*`, `pool.*`, `mem.*` and `kernel.*.roofline` metrics).
#[derive(Default)]
pub struct Paths {
    /// Samples and round times of untraced and traced chunks.
    samples: [PathSamples; 2],
    rounds: [Vec<f64>; 2],
}

impl Paths {
    /// One chunk: `PATHS_SHARE / CYCLES` of the run.
    pub fn chunk(&mut self, run: &Run, st: &mut Kern, report: &mut Report, tracer: &mut Tracer) {
        let m = mode(tracer);
        let until = run.deadline(PATHS_SHARE / CYCLES as f64);
        paths_rounds(
            st,
            until,
            &mut self.samples[m],
            &mut self.rounds[m],
            tracer,
            report,
        );
    }

    /// Reports the layer metrics of the traced chunks when traced. Returns
    /// the phase's trace overhead.
    pub fn finish(self, run: &Run, st: &Kern, report: &mut Report) -> f64 {
        if run.trace {
            paths_report(run, st, &self.samples[1], report);
        }
        overhead(run, &self.rounds)
    }
}

fn paths_report(run: &Run, st: &Kern, s: &PathSamples, report: &mut Report) {
    let (w, h) = st.dims;
    let workers = run.host.nproc;
    let n = s.copy.len();
    // The pooled throughput is a per-layer metric only: at 8 Mpx it moved
    // by a third between two sets of runs of unchanged code, more than any
    // bound can allow (README.md, "Metrics kept out of the end-to-end
    // list").
    let pooled: Vec<f64> = s.pooled.iter().map(|v| mpx_s(st.dims, median(v))).collect();
    report.add_n("pool.hand_mpx_s", geomean(&pooled), "Mpx/s", n);
    let copy_bytes = std::mem::size_of_val(st.copy_dst.as_slice());
    let copy_gb_s = 2.0 * copy_bytes as f64 / median(&s.copy) / 1e3;
    report.add_n("mem.copy_gb_s", copy_gb_s, "GB/s", n);
    for k in KERNELS {
        let serial_us = median(&s.serial[k.index()]);
        let pooled_us = median(&s.pooled[k.index()]);
        let gb_s = k.bytes_per_px() * (w * h) as f64 / serial_us / 1e3;
        report.add_n(
            format!("kernel.{}.roofline", k.name()),
            gb_s / copy_gb_s,
            "ratio",
            n,
        );
        report.add_n(
            format!("pool.{}.efficiency", k.name()),
            serial_us / (pooled_us * workers as f64),
            "ratio",
            n,
        );
    }
    for (i, k) in STENCILS.into_iter().enumerate() {
        let fused = median(&s.serial[k.index()]) / 1e3;
        let twopass = median(&s.twopass[i]) / 1e3;
        let name = k.name();
        report.add_n(format!("pipeline.{name}.fused_ms_p50"), fused, "ms", n);
        report.add_n(format!("pipeline.{name}.twopass_ms_p50"), twopass, "ms", n);
        report.add_n(
            format!("pipeline.{name}.fusion_gain"),
            twopass / fused,
            "ratio",
            n,
        );
    }
    let grown = st.exec.scratch.fresh_allocs() - st.warm_allocs;
    report.add("pipeline.scratch_fresh_allocs", grown as f64, "count");
    let frames = s.rounds.max(1) as f64;
    // Fused calls per round: three serial, three pooled.
    report.add(
        "pipeline.bands_per_frame",
        s.bands as f64 / (frames * 6.0),
        "count",
    );
    report.add_n(
        "pool.dispatch_us_p50",
        median(&s.dispatch),
        "us",
        s.dispatch.len(),
    );
    for (total, (_, name)) in s.pool.iter().zip(POOL_COUNTERS) {
        let per_call = *total as f64 / (frames * KERNELS.len() as f64);
        report.add(format!("pool.{name}_per_frame"), per_call, "count");
    }
}
