//! The stream phase of every run: a `StreamEngine` running the fused
//! Gaussian with one slot per worker, driven by one generator thread. Each
//! chunk of the phase runs a closed loop (resubmit after each `Saturated`)
//! and then an open loop at the workload's fixed rate, each frame timed
//! from when it was due. Frames complete asynchronously, so the chunks
//! keep their submit times and everything is read from the outcomes when
//! the engine finishes at the end of the run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pixelimage::Image;
use simdbench_core::kernelgen::{paper_gaussian_kernel, FixedKernel};
use simdbench_core::pipeline::fused_gaussian_blur_with;
use simdbench_core::scratch::Scratch;
use simdbench_core::stream::{
    frame_checksum, FrameOutcome, FrameStatus, StreamConfig, StreamEngine, StreamError,
    StreamKernel,
};

use crate::kernels::{HAND, IMAGES};
use crate::report::{fast_rate, median, percentile, Report};
use crate::trace::{Tracer, POOL_COUNTERS};
use crate::{mode, secs, Run, CYCLES, STREAM_SHARE};

/// Admission queue depth, fixed rather than the default 2 × slots: at the
/// default, unchanged code refused up to 79 of 2,400 VGA frames at 400 fps
/// because the shared 2-vCPU VM it was defined on stalls for longer than
/// four frames of buffer. 64 frames are 160 ms at the VGA open-loop rate.
const QUEUE_CAP: usize = 64;
/// Open-loop seconds per latency window. `stream_p50_ms` is the median of
/// the windows' medians: a burst of load from other tenants of the host
/// moves the windows it hits, not the result. Over five 40 s runs it
/// spread 4.5 % (VGA) and 6.8 % (1 Mpx), against 5 % and 20 % for the
/// fastest tenth of windows.
const OPEN_WINDOW_S: f64 = 0.25;
/// Open-loop frames per chunk at least, so that the traced half of a run
/// has 1,000 and the per-layer p99 ten samples beyond it.
const MIN_OPEN_FRAMES: usize = 1000 / (CYCLES / 2);
/// Closed-loop throughput window; `stream_fps` is the fastest tenth. Over
/// seven 40 s runs at 1 Mpx that statistic spread 5.8 % with 0.5 s
/// windows, 7.1 % with 0.1 s and 7.9 % with 1 s windows.
const CLOSED_WINDOW: Duration = Duration::from_millis(500);
/// Back-off of the closed-loop generator after a `Saturated` refusal.
const RETRY_SLEEP: Duration = Duration::from_micros(500);
/// Serial fused-kernel and checksum calls timed per chunk for
/// `stream.kernel_us` and `stream.checksum_us`.
const SERIAL_CALLS: usize = 50;

pub struct St {
    frames: Vec<Arc<Image<u8>>>,
    /// Checksum of the scalar two-pass Gaussian of each frame.
    want: Vec<u64>,
    engine: Option<StreamEngine>,
    scratch: Scratch,
    gauss: FixedKernel,
    dst: Image<u8>,
    next_id: u64,
}

impl St {
    fn engine(&self) -> &StreamEngine {
        self.engine
            .as_ref()
            .expect("engine lives until the run ends")
    }

    fn frame(&self, id: u64) -> Arc<Image<u8>> {
        Arc::clone(&self.frames[id as usize % IMAGES])
    }

    /// The stream state around the run's frames and the checksums of
    /// their references: a `StreamEngine` warmed with one frame per slot,
    /// and the scratch and destination of the serial calls.
    pub fn new(run: &Run, frames: Vec<Arc<Image<u8>>>, want: Vec<u64>) -> St {
        let (w, h) = run.dims;
        let workers = run.host.nproc;
        let engine = StreamEngine::new(config(run.dims, workers)).expect("geometry is valid");
        let mut st = St {
            frames,
            want,
            engine: Some(engine),
            scratch: Scratch::new(),
            gauss: paper_gaussian_kernel(),
            dst: Image::new(w, h),
            next_id: 0,
        };
        // Warm-up: one frame per slot fills every slot arena.
        for _ in 0..workers {
            let id = st.next_id;
            st.next_id += 1;
            while st.engine().submit(id, st.frame(id)).is_err() {
                st.engine().wait_idle();
            }
        }
        st.engine().wait_idle();
        st
    }

    /// A fact line on the stream's inputs and configuration.
    pub fn describe(&self, run: &Run) -> String {
        let (w, h) = run.dims;
        format!(
            "stream: {IMAGES} frames {w}x{h}, working set per frame {} bytes (u8 in + u8 out); \
             slots={} queue_cap={QUEUE_CAP} kernel=fused Gaussian engine={HAND:?}; \
             open loop {} frames/s",
            2 * w * h,
            run.host.nproc,
            run.open_rate
        )
    }
}

struct Closed {
    ids: std::ops::Range<u64>,
    start: Instant,
    until: Instant,
    /// When `submit` returned for each frame (`None`: rejected).
    submitted: Vec<Option<Instant>>,
    elapsed_s: f64,
    attempts: u64,
    saturated: u64,
}

struct Open {
    first_id: u64,
    due: Vec<Instant>,
    /// When `submit` returned for each admitted frame (`None`: refused).
    submitted: Vec<Option<Instant>>,
    submit_us: Vec<f64>,
    late_ms: Vec<f64>,
}

fn config((w, h): (usize, usize), slots: usize) -> StreamConfig {
    let mut cfg = StreamConfig::new(w, h);
    cfg.slots = slots;
    cfg.queue_cap = QUEUE_CAP;
    cfg.kernel = StreamKernel::Gaussian;
    cfg.engine = HAND;
    cfg
}

/// Serial fused Gaussian and checksum times in µs, checked against the
/// reference, added to `kernel` and `checksum`.
fn serial(st: &mut St, kernel: &mut Vec<f64>, checksum: &mut Vec<f64>, report: &mut Report) {
    for i in 0..SERIAL_CALLS {
        let img = i % IMAGES;
        let t0 = Instant::now();
        fused_gaussian_blur_with(
            &st.frames[img],
            &mut st.dst,
            &st.gauss,
            HAND,
            &mut st.scratch,
        );
        let t1 = Instant::now();
        let sum = frame_checksum(&st.dst);
        let t2 = Instant::now();
        report.check(sum == st.want[img]);
        kernel.push((t1 - t0).as_secs_f64() * 1e6);
        checksum.push((t2 - t1).as_secs_f64() * 1e6);
    }
}

fn closed(st: &mut St, until: Instant, tracer: &mut Tracer, report: &mut Report) -> Closed {
    let first = st.next_id;
    let (mut attempts, mut saturated) = (0, 0);
    let mut submitted = Vec::new();
    tracer.open("bench.closed", first);
    let start = Instant::now();
    while Instant::now() < until {
        let id = st.next_id;
        st.next_id += 1;
        loop {
            attempts += 1;
            let t0 = Instant::now();
            match st.engine().submit(id, st.frame(id)) {
                Ok(()) => {
                    let t1 = Instant::now();
                    tracer.leaf("stream.submit", t0, t1, id);
                    submitted.push(Some(t1));
                    break;
                }
                Err(StreamError::Saturated { .. }) => {
                    saturated += 1;
                    std::thread::sleep(RETRY_SLEEP);
                }
                Err(StreamError::Rejected(_)) => {
                    report.lost();
                    submitted.push(None);
                    break;
                }
            }
        }
    }
    st.engine().wait_idle();
    let elapsed_s = secs(start);
    tracer.close();
    Closed {
        ids: first..st.next_id,
        start,
        until,
        submitted,
        elapsed_s,
        attempts,
        saturated,
    }
}

fn open(st: &mut St, rate: f64, frames: usize, tracer: &mut Tracer, report: &mut Report) -> Open {
    let first_id = st.next_id;
    let mut o = Open {
        first_id,
        due: Vec::with_capacity(frames),
        submitted: Vec::with_capacity(frames),
        submit_us: Vec::with_capacity(frames),
        late_ms: Vec::with_capacity(frames),
    };
    tracer.open("bench.open", first_id);
    let start = Instant::now() + Duration::from_millis(1);
    for i in 0..frames {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let id = st.next_id;
        st.next_id += 1;
        let t0 = Instant::now();
        let admitted = st.engine().submit(id, st.frame(id)).is_ok();
        let t1 = Instant::now();
        tracer.leaf("stream.submit", t0, t1, id);
        o.due.push(due);
        o.late_ms.push((t0 - due).as_secs_f64() * 1e3);
        o.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        o.submitted.push(admitted.then_some(t1));
        if !admitted {
            report.lost();
        }
    }
    st.engine().wait_idle();
    tracer.close();
    o
}

/// Open-loop latencies in ms from each frame's due time, per window of
/// `window` frames (the last window takes the remainder). `submit`
/// returns after admission, so the completion time `submitted + latency`
/// exceeds the true one by at most the submit call.
fn open_latencies(o: &Open, window: usize, outcomes: &HashMap<u64, FrameOutcome>) -> Vec<Vec<f64>> {
    let windows = (o.due.len() / window).max(1);
    let mut lat = vec![Vec::new(); windows];
    for (i, (due, sub)) in o.due.iter().zip(&o.submitted).enumerate() {
        let Some(sub) = sub else { continue };
        let out = &outcomes[&(o.first_id + i as u64)];
        if matches!(out.status, FrameStatus::Completed { .. }) {
            lat[(i / window).min(windows - 1)]
                .push(((*sub - *due) + out.latency).as_secs_f64() * 1e3);
        }
    }
    lat
}

/// Completed frames/s in each whole `CLOSED_WINDOW` of the closed loop:
/// completions in the window after its first, over the time from its
/// first completion to its last.
fn closed_fps(c: &Closed, outcomes: &HashMap<u64, FrameOutcome>) -> Vec<f64> {
    let w = CLOSED_WINDOW.as_secs_f64();
    let windows = (((c.until - c.start).as_secs_f64() / w) as usize).max(1);
    let mut done: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (id, sub) in c.ids.clone().zip(&c.submitted) {
        let (Some(sub), Some(out)) = (sub, outcomes.get(&id)) else {
            continue;
        };
        if matches!(out.status, FrameStatus::Completed { .. }) {
            let t = (*sub + out.latency - c.start).as_secs_f64();
            if let Some(v) = done.get_mut((t / w) as usize) {
                v.push(t);
            }
        }
    }
    done.into_iter()
        .filter(|v| v.len() > 1)
        .map(|v| {
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
            (v.len() - 1) as f64 / (hi - lo)
        })
        .collect()
}

/// A statistic of each non-empty window.
fn per_window(windows: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect()
}

fn completed(ids: std::ops::Range<u64>, outcomes: &HashMap<u64, FrameOutcome>) -> usize {
    ids.filter(|id| {
        outcomes
            .get(id)
            .is_some_and(|o| matches!(o.status, FrameStatus::Completed { .. }))
    })
    .count()
}

fn open_frames(run: &Run) -> usize {
    let seconds = run.seconds * STREAM_SHARE / 2.0 / CYCLES as f64;
    MIN_OPEN_FRAMES.max((run.open_rate * seconds) as usize)
}

/// `obs` counts over the traced chunks of one loop.
#[derive(Default)]
struct Counts {
    pool: [u64; 5],
    bands: u64,
    rejected: u64,
    shed: u64,
    queue_hw: u64,
}

impl Counts {
    /// Adds what `obs` counted since its last reset, then resets it.
    fn take(&mut self) {
        let snap = obs::snapshot();
        obs::reset();
        for (total, (c, _)) in self.pool.iter_mut().zip(POOL_COUNTERS) {
            *total += snap.counter(c);
        }
        self.bands += snap.counter(obs::Counter::PipelineBands);
        self.rejected += snap.counter(obs::Counter::StreamRejected);
        self.shed += snap.counter(obs::Counter::StreamShed);
        self.queue_hw = self
            .queue_hw
            .max(snap.gauge(obs::Gauge::StreamQueueDepthHighWater));
    }
}

/// What the untraced or the traced chunks of the phase recorded.
#[derive(Default)]
struct Samples {
    kernel_us: Vec<f64>,
    checksum_us: Vec<f64>,
    closed: Vec<Closed>,
    open: Vec<Open>,
    in_closed: Counts,
    in_open: Counts,
}

/// The stream phase: per chunk, serial fused-Gaussian and checksum calls,
/// then the closed loop for half the chunk and the open loop for the other
/// half. Every frame's checksum is checked.
#[derive(Default)]
pub struct Stream {
    /// Untraced and traced chunks.
    modes: [Samples; 2],
}

impl Stream {
    /// One chunk: `STREAM_SHARE / CYCLES` of the run, or longer if the
    /// open loop needs more time for `MIN_OPEN_FRAMES`.
    pub fn chunk(&mut self, run: &Run, st: &mut St, report: &mut Report, tracer: &mut Tracer) {
        let m = &mut self.modes[mode(tracer)];
        let counting = tracer.on();
        serial(st, &mut m.kernel_us, &mut m.checksum_us, report);
        if counting {
            obs::reset();
        }
        let until = run.deadline(STREAM_SHARE / 2.0 / CYCLES as f64);
        m.closed.push(closed(st, until, tracer, report));
        if counting {
            m.in_closed.take();
        }
        m.open
            .push(open(st, run.open_rate, open_frames(run), tracer, report));
        if counting {
            m.in_open.take();
        }
    }

    /// Finishes the engine, checks every frame, and reports `stream_fps`
    /// and `stream_p50_ms`, or the `stream.*` layer metrics from the
    /// traced chunks when traced. Returns the phase's trace overhead:
    /// traced ÷ untraced closed-loop time per frame.
    pub fn finish(self, run: &Run, mut st: St, report: &mut Report, tracer: &mut Tracer) -> f64 {
        let outcomes: HashMap<u64, FrameOutcome> = st
            .engine
            .take()
            .expect("engine lives until the run ends")
            .finish()
            .into_iter()
            .map(|o| (o.id, o))
            .collect();
        for (id, out) in &outcomes {
            match out.status {
                FrameStatus::Completed { checksum } => {
                    report.check(checksum == st.want[*id as usize % IMAGES])
                }
                FrameStatus::Shed(_) | FrameStatus::Failed(_) => report.lost(),
            }
        }
        let per_frame = |m: &Samples| {
            let (s, n) = m.closed.iter().fold((0.0, 0usize), |(s, n), c| {
                (s + c.elapsed_s, n + c.ids.clone().count())
            });
            s / n.max(1) as f64
        };
        let overhead = if run.trace {
            per_frame(&self.modes[1]) / per_frame(&self.modes[0])
        } else {
            1.0
        };
        let m = &self.modes[usize::from(run.trace)];
        if run.trace {
            frame_spans(m, &outcomes, tracer);
        }
        report_metrics(run, m, &outcomes, report);
        overhead
    }
}

/// Records each traced frame as a span from admission (closed loop) or due
/// time (open loop) to completion.
fn frame_spans(m: &Samples, outcomes: &HashMap<u64, FrameOutcome>, tracer: &mut Tracer) {
    tracer.set_on(true);
    let closed = m.closed.iter().flat_map(|c| {
        c.ids
            .clone()
            .zip(c.submitted.iter().map(|s| s.map(|s| (s, s))))
    });
    let open = m.open.iter().flat_map(|o| {
        (o.first_id..).zip(
            o.due
                .iter()
                .zip(&o.submitted)
                .map(|(d, s)| s.map(|s| (*d, s))),
        )
    });
    for (id, times) in closed.chain(open) {
        if let (Some((from, sub)), Some(out)) = (times, outcomes.get(&id)) {
            tracer.leaf("stream.frame", from, sub + out.latency, id);
        }
    }
    tracer.set_on(false);
}

fn report_metrics(
    run: &Run,
    m: &Samples,
    outcomes: &HashMap<u64, FrameOutcome>,
    report: &mut Report,
) {
    let workers = run.host.nproc;
    let done: usize = m
        .closed
        .iter()
        .map(|c| completed(c.ids.clone(), outcomes))
        .sum();
    let fps_windows: Vec<f64> = m
        .closed
        .iter()
        .flat_map(|c| closed_fps(c, outcomes))
        .collect();
    let fps = fast_rate(&fps_windows);
    let window = ((run.open_rate * OPEN_WINDOW_S) as usize).max(1);
    let lat: Vec<Vec<f64>> = m
        .open
        .iter()
        .flat_map(|o| open_latencies(o, window, outcomes))
        .collect();
    if lat.iter().all(Vec::is_empty) {
        eprintln!("perfbench: no open-loop frame completed");
        report.lost();
        return;
    }
    let p50s = per_window(&lat, median);
    let p50 = median(&p50s);
    let p90s = per_window(&lat, |w| percentile(w, 0.9));
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| (x * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    };
    let open_frames: usize = m.open.iter().map(|o| o.due.len()).sum();
    report.fact(
        "windows",
        format!(
            "closed loop: {done} frames, fps per {} s window {:?}; open loop: {open_frames} \
             frames, per window of {window}: p50_ms {:?} p90_ms {:?}",
            CLOSED_WINDOW.as_secs_f64(),
            fps_windows.iter().map(|v| v.round()).collect::<Vec<_>>(),
            round(&p50s),
            round(&p90s)
        ),
    );
    if !run.trace {
        report.add_n("stream_fps", fps, "frames/s", fps_windows.len());
        report.add_n("stream_p50_ms", p50, "ms", p50s.len());
        return;
    }
    let all: Vec<f64> = lat.concat();
    report.add_n("stream.p90_ms", percentile(&all, 0.9), "ms", all.len());
    report.add_n("stream.p99_ms", percentile(&all, 0.99), "ms", all.len());
    let kernel = median(&m.kernel_us);
    let checksum = median(&m.checksum_us);
    report.add_n("stream.kernel_us", kernel, "us", m.kernel_us.len());
    report.add_n("stream.checksum_us", checksum, "us", m.checksum_us.len());
    let submit_us: Vec<f64> = m.open.iter().flat_map(|o| o.submit_us.clone()).collect();
    report.add_n(
        "stream.submit_us_p50",
        median(&submit_us),
        "us",
        submit_us.len(),
    );
    report.add_n(
        "stream.submit_us_p99",
        percentile(&submit_us, 0.99),
        "us",
        submit_us.len(),
    );
    let (saturated, attempts) = m
        .closed
        .iter()
        .fold((0, 0), |(s, a), c| (s + c.saturated, a + c.attempts));
    report.add(
        "stream.saturated_ratio",
        saturated as f64 / attempts.max(1) as f64,
        "ratio",
    );
    report.add(
        "stream.capacity_frac",
        fps / (workers as f64 * 1e6 / kernel),
        "ratio",
    );
    report.add_n(
        "stream.overhead_us_p50",
        p50 * 1e3 - (kernel + checksum),
        "us",
        p50s.len(),
    );
    let late_ms: Vec<f64> = m.open.iter().flat_map(|o| o.late_ms.clone()).collect();
    report.add_n(
        "stream.gen_late_ms_p99",
        percentile(&late_ms, 0.99),
        "ms",
        late_ms.len(),
    );
    let o = &m.in_open;
    report.add("stream.queue_depth_hw", o.queue_hw as f64, "count");
    report.add("stream.rejected", o.rejected as f64, "count");
    report.add("stream.shed", o.shed as f64, "count");
    let open_done: usize = m
        .open
        .iter()
        .map(|o| completed(o.first_id..o.first_id + o.due.len() as u64, outcomes))
        .sum();
    let frames = (done + open_done).max(1) as f64;
    let c = &m.in_closed;
    report.add(
        "stream.bands_per_frame",
        (c.bands + o.bands) as f64 / frames,
        "count",
    );
    // No fork-join jobs: the stream only spawns detached per-frame tasks.
    for (i, (_, name)) in POOL_COUNTERS
        .iter()
        .enumerate()
        .filter(|(_, (_, n))| *n != "jobs")
    {
        let per_frame = (c.pool[i] + o.pool[i]) as f64 / frames;
        report.add(format!("stream.{name}_per_frame"), per_frame, "count");
    }
}
