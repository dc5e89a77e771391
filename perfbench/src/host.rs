//! Host facts written into every report: worker count, cache sizes,
//! compiler and the SIMD target features the build was compiled for.

pub struct Host {
    pub nproc: usize,
    pub l1d: Option<usize>,
    pub l2: Option<usize>,
    pub l3: Option<usize>,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (l1d, l2, l3) = cache_sizes();
        Host { nproc, l1d, l2, l3 }
    }

    pub fn describe(&self) -> String {
        let kib =
            |b: Option<usize>| b.map_or("unknown".to_string(), |b| format!("{} KiB", b / 1024));
        format!(
            "nproc={} l1d={} l2={} l3={} rustc=\"{}\" target_features=[{}]",
            self.nproc,
            kib(self.l1d),
            kib(self.l2),
            kib(self.l3),
            env!("PERFBENCH_RUSTC"),
            target_features().join(",")
        )
    }
}

/// SIMD features enabled at compile time (what HAND and AUTO may use).
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($feat:literal),*) => {
            $(if cfg!(target_feature = $feat) { f.push($feat); })*
        };
    }
    probe!("sse2", "sse3", "ssse3", "sse4.1", "sse4.2", "avx", "avx2", "avx512f", "fma", "neon");
    f
}

/// Data/unified cache sizes per level from CPUID leaf 4 (deterministic
/// cache parameters). Other architectures report them as unknown.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (Option<usize>, Option<usize>, Option<usize>) {
    use std::arch::x86_64::__cpuid_count;
    let (mut l1d, mut l2, mut l3) = (None, None, None);
    let max_leaf = __cpuid_count(0, 0).eax;
    if max_leaf < 4 {
        return (None, None, None);
    }
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let ty = r.eax & 0x1f;
        if ty == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let partitions = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        let bytes = Some(ways * partitions * line * sets);
        match (level, ty) {
            (1, 1) => l1d = bytes,
            (2, _) => l2 = bytes,
            (3, _) => l3 = bytes,
            _ => {}
        }
    }
    (l1d, l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<usize>, Option<usize>, Option<usize>) {
    (None, None, None)
}
