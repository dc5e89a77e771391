//! The five paper kernels, called only through the library's public entry
//! points, with seeded inputs and scalar two-pass reference outputs.

use std::sync::Arc;

use pixelimage::convert::u8_to_f32;
use pixelimage::{synthetic_image, Image};
use rayon::ThreadPool;
use simdbench_core::convert::convert_f32_to_i16;
use simdbench_core::edge::edge_detect;
use simdbench_core::gaussian::gaussian_blur;
use simdbench_core::kernelgen::{paper_gaussian_kernel, FixedKernel};
use simdbench_core::parallel::{par_convert_f32_to_i16, par_threshold_u8};
use simdbench_core::pipeline::{
    fused_edge_detect_with, fused_gaussian_blur_with, fused_sobel_with, par_fused_edge_detect_with,
    par_fused_gaussian_blur_with, par_fused_sobel_with, BandPlan,
};
use simdbench_core::scratch::Scratch;
use simdbench_core::sobel::{sobel, SobelDirection};
use simdbench_core::threshold::{threshold_u8, ThresholdType};
use simdbench_core::Engine;

/// The paper's VGA resolution.
pub const VGA: (usize, usize) = (640, 480);

/// Seeded input images per run; calls cycle through them.
pub const IMAGES: usize = 5;

/// The paper's HAND engine on this build (SSE2 intrinsics on x86_64).
pub const HAND: Engine = Engine::Native;
/// The paper's AUTO engine (compiler auto-vectorized source).
pub const AUTO: Engine = Engine::Autovec;

// Parameters as in the harness's Table III measurements.
const THRESH: u8 = 128;
const MAXVAL: u8 = 255;
const EDGE_THRESH: u8 = 96;
const SOBEL_DIR: SobelDirection = SobelDirection::X;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Convert,
    Threshold,
    Gaussian,
    Sobel,
    Edge,
}

pub const KERNELS: [Kernel; 5] = [
    Kernel::Convert,
    Kernel::Threshold,
    Kernel::Gaussian,
    Kernel::Sobel,
    Kernel::Edge,
];

/// The kernels with a band-fused pipeline.
pub const STENCILS: [Kernel; 3] = [Kernel::Gaussian, Kernel::Sobel, Kernel::Edge];

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Convert => "convert",
            Kernel::Threshold => "threshold",
            Kernel::Gaussian => "gaussian",
            Kernel::Sobel => "sobel",
            Kernel::Edge => "edge",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Computed bytes one call must read and write per pixel: the source
    /// once and the destination once (f32 → i16 for convert, u8 → i16 for
    /// Sobel, u8 → u8 otherwise). Cache misses are not counted.
    pub fn bytes_per_px(self) -> f64 {
        match self {
            Kernel::Convert => 6.0,
            Kernel::Sobel => 3.0,
            Kernel::Threshold | Kernel::Gaussian | Kernel::Edge => 2.0,
        }
    }
}

/// How a kernel is entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The direct entry point: two passes with a full-image intermediate
    /// for the stencils, one pass for convert and threshold.
    Direct,
    /// The band-fused serial pipeline (`fused_*_with`), stencils only.
    Fused,
    /// The pool: `par_convert_f32_to_i16`, `par_threshold_u8` and
    /// `par_fused_*_with` inside `ThreadPool::install`.
    Pooled,
}

/// Span name of one call, `layer.op`.
pub fn span_name(k: Kernel, path: Path) -> &'static str {
    match (path, k) {
        (Path::Direct, Kernel::Convert) => "kernel.convert",
        (Path::Direct, Kernel::Threshold) => "kernel.threshold",
        (Path::Direct, Kernel::Gaussian) => "kernel.gaussian",
        (Path::Direct, Kernel::Sobel) => "kernel.sobel",
        (Path::Direct, Kernel::Edge) => "kernel.edge",
        (Path::Fused, Kernel::Gaussian) => "pipeline.fused_gaussian",
        (Path::Fused, Kernel::Sobel) => "pipeline.fused_sobel",
        (Path::Fused, Kernel::Edge) => "pipeline.fused_edge",
        (Path::Fused, _) => unreachable!("pointwise kernels have no fused path"),
        (Path::Pooled, Kernel::Convert) => "pool.par_convert",
        (Path::Pooled, Kernel::Threshold) => "pool.par_threshold",
        (Path::Pooled, Kernel::Gaussian) => "pool.par_fused_gaussian",
        (Path::Pooled, Kernel::Sobel) => "pool.par_fused_sobel",
        (Path::Pooled, Kernel::Edge) => "pool.par_fused_edge",
    }
}

/// Seed of image `i` of a run with seed `seed`.
pub fn image_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

/// One seeded input image, in the two element types the kernels take.
pub struct Frame {
    /// Shared with the stream, which takes frames as `Arc`s.
    pub gray: Arc<Image<u8>>,
    /// `gray` rescaled over the whole i16 range, so convert saturates.
    pub float: Image<f32>,
}

impl Frame {
    pub fn new(width: usize, height: usize, seed: u64) -> Frame {
        let gray = synthetic_image(width, height, seed);
        let float = u8_to_f32(&gray, 257.0, -32768.0);
        Frame {
            gray: Arc::new(gray),
            float,
        }
    }

    /// Bytes of the inputs one round of every kernel reads.
    pub fn bytes(&self) -> usize {
        self.gray.as_slice().len() + std::mem::size_of_val(self.float.as_slice())
    }
}

/// Destination images, reused across calls.
pub struct Outputs {
    pub u8: Image<u8>,
    pub i16: Image<i16>,
}

impl Outputs {
    pub fn new(width: usize, height: usize) -> Outputs {
        Outputs {
            u8: Image::new(width, height),
            i16: Image::new(width, height),
        }
    }
}

/// Scalar two-pass outputs of every kernel for one frame: what every other
/// engine and path must reproduce bit for bit.
pub struct Refs {
    convert: Image<i16>,
    threshold: Image<u8>,
    gaussian: Image<u8>,
    sobel: Image<i16>,
    edge: Image<u8>,
}

impl Refs {
    pub fn compute(f: &Frame) -> Refs {
        let (w, h) = (f.gray.width(), f.gray.height());
        let mut r = Refs {
            convert: Image::new(w, h),
            threshold: Image::new(w, h),
            gaussian: Image::new(w, h),
            sobel: Image::new(w, h),
            edge: Image::new(w, h),
        };
        let e = Engine::Scalar;
        convert_f32_to_i16(&f.float, &mut r.convert, e);
        threshold_u8(
            &f.gray,
            &mut r.threshold,
            THRESH,
            MAXVAL,
            ThresholdType::Binary,
            e,
        );
        gaussian_blur(&f.gray, &mut r.gaussian, e);
        sobel(&f.gray, &mut r.sobel, SOBEL_DIR, e);
        edge_detect(&f.gray, &mut r.edge, EDGE_THRESH, e);
        r
    }

    pub fn gaussian(&self) -> &Image<u8> {
        &self.gaussian
    }

    /// Sets every pixel of the output `k` writes to the complement of its
    /// reference, so that any pixel the next call leaves unwritten fails
    /// `matches`.
    pub fn poison(&self, k: Kernel, out: &mut Outputs) {
        match k {
            Kernel::Convert => complement(out.i16.as_mut_slice(), self.convert.as_slice()),
            Kernel::Threshold => complement(out.u8.as_mut_slice(), self.threshold.as_slice()),
            Kernel::Gaussian => complement(out.u8.as_mut_slice(), self.gaussian.as_slice()),
            Kernel::Sobel => complement(out.i16.as_mut_slice(), self.sobel.as_slice()),
            Kernel::Edge => complement(out.u8.as_mut_slice(), self.edge.as_slice()),
        }
    }

    /// True when the output `k` just wrote equals the reference.
    pub fn matches(&self, k: Kernel, out: &Outputs) -> bool {
        match k {
            Kernel::Convert => out.i16.pixels_eq(&self.convert),
            Kernel::Threshold => out.u8.pixels_eq(&self.threshold),
            Kernel::Gaussian => out.u8.pixels_eq(&self.gaussian),
            Kernel::Sobel => out.i16.pixels_eq(&self.sobel),
            Kernel::Edge => out.u8.pixels_eq(&self.edge),
        }
    }
}

/// Writes the bitwise complement of each element of `want` into `out`.
fn complement<T: Copy + std::ops::Not<Output = T>>(out: &mut [T], want: &[T]) {
    for (o, w) in out.iter_mut().zip(want) {
        *o = !*w;
    }
}

/// What the fused and pooled paths need besides the images.
pub struct Exec {
    pub scratch: Scratch,
    pub plan: BandPlan,
    pub gauss: FixedKernel,
    pub pool: ThreadPool,
}

impl Exec {
    pub fn new(width: usize, workers: usize) -> Exec {
        Exec {
            scratch: Scratch::new(),
            plan: BandPlan::for_width(width),
            gauss: paper_gaussian_kernel(),
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .expect("the pool builder never fails"),
        }
    }
}

/// Runs kernel `k` on `f` through its direct entry point.
pub fn direct(k: Kernel, f: &Frame, out: &mut Outputs, engine: Engine) {
    match k {
        Kernel::Convert => convert_f32_to_i16(&f.float, &mut out.i16, engine),
        Kernel::Threshold => threshold_u8(
            &f.gray,
            &mut out.u8,
            THRESH,
            MAXVAL,
            ThresholdType::Binary,
            engine,
        ),
        Kernel::Gaussian => gaussian_blur(&f.gray, &mut out.u8, engine),
        Kernel::Sobel => sobel(&f.gray, &mut out.i16, SOBEL_DIR, engine),
        Kernel::Edge => edge_detect(&f.gray, &mut out.u8, EDGE_THRESH, engine),
    }
}

/// Runs kernel `k` on `f` through `path` with `engine`, into `out`.
pub fn run(k: Kernel, path: Path, f: &Frame, out: &mut Outputs, engine: Engine, x: &mut Exec) {
    if path == Path::Direct {
        return direct(k, f, out, engine);
    }
    let Exec {
        scratch,
        plan,
        gauss,
        pool,
    } = x;
    let (src, u8o, i16o) = (&f.gray, &mut out.u8, &mut out.i16);
    match (path, k) {
        (Path::Fused, Kernel::Gaussian) => {
            fused_gaussian_blur_with(src, u8o, gauss, engine, scratch)
        }
        (Path::Fused, Kernel::Sobel) => fused_sobel_with(src, i16o, SOBEL_DIR, engine, scratch),
        (Path::Fused, Kernel::Edge) => {
            fused_edge_detect_with(src, u8o, EDGE_THRESH, engine, scratch)
        }
        (Path::Pooled, _) => pool.install(|| match k {
            Kernel::Convert => par_convert_f32_to_i16(&f.float, i16o, engine),
            Kernel::Threshold => {
                par_threshold_u8(src, u8o, THRESH, MAXVAL, ThresholdType::Binary, engine)
            }
            Kernel::Gaussian => par_fused_gaussian_blur_with(src, u8o, gauss, engine, plan),
            Kernel::Sobel => par_fused_sobel_with(src, i16o, SOBEL_DIR, engine, plan),
            Kernel::Edge => par_fused_edge_detect_with(src, u8o, EDGE_THRESH, engine, plan),
        }),
        _ => unreachable!("pointwise kernels have no fused path"),
    }
}
