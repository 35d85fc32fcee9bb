//! Facts about the measuring host, stamped into every artifact so a
//! number is never read without the machine it came from.

use blitz_bench::Json;

/// The host a run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu_model: String,
    /// The split kernel `KernelChoice::Simd` resolves to here.
    pub kernel: &'static str,
}

impl Host {
    /// Probe the running host.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|l| {
                    l.strip_prefix("model name")?
                        .split_once(':')
                        .map(|(_, v)| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel: simd_kernel(),
        }
    }

    /// Whether `threads` busy threads exceed the host's cores: such rows
    /// measure time-slicing and are never quoted as speed-ups.
    pub fn oversubscribed(&self, threads: usize) -> bool {
        threads > self.nproc
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("kernel", Json::str(self.kernel)),
        ])
    }
}

/// The resolution rule of `KernelChoice::Simd` (kept crate-private in
/// `blitz-core`): AVX-512, else AVX2, else the portable batched kernel
/// on x86-64; NEON on aarch64.
fn simd_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "batched"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "batched"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversubscription_is_relative_to_cores() {
        let host = Host {
            nproc: 2,
            cpu_model: "x".into(),
            kernel: "avx2",
        };
        assert!(!host.oversubscribed(2));
        assert!(host.oversubscribed(3));
        assert_eq!(
            host.to_json().get("nproc").and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
