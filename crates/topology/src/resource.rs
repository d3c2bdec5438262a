//! Per-instance resource requests, mirroring the R-Storm user API (§5.2).
//!
//! The paper models every task's demand as the 3-dimensional vector
//! `A_τ = {m_τ, c_τ, b_τ}` — memory (a *hard* constraint), CPU and
//! bandwidth (*soft* constraints). CPU is expressed in Storm's "point
//! system": 100 points ≈ one full core (§5.2), memory in megabytes, and
//! bandwidth as an abstract demand used in the network-distance term of
//! the node-selection metric.

use std::fmt;

/// Resource demand of a *single instance* (task) of a component.
///
/// Constructed via [`ResourceRequest::new`] or, more commonly, implicitly
/// through the builder's `set_cpu_load` / `set_memory_load` /
/// `set_bandwidth_load` declarer methods, which mirror the Java API calls
/// `setCPULoad(Double)` / `setMemoryLoad(Double)` the paper introduces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceRequest {
    /// CPU demand in points; 100.0 points ≈ 100% of one core.
    pub cpu_points: f64,
    /// Memory demand in megabytes. This is the paper's only *hard*
    /// constraint: a placement must never exceed a node's available memory.
    pub memory_mb: f64,
    /// Bandwidth demand (abstract units). A *soft* constraint; in the
    /// R-Storm distance metric bandwidth is realized as network distance
    /// from the reference node, so this value acts as a scale factor for
    /// how network-sensitive the task is.
    pub bandwidth: f64,
}

impl ResourceRequest {
    /// Default CPU demand Storm assumes when the user gives no hint
    /// (Storm's `topology.component.cpu.pcore.percent` default).
    pub const DEFAULT_CPU_POINTS: f64 = 10.0;
    /// Default per-task on-heap memory Storm assumes when the user gives
    /// no hint (Storm's `topology.component.resources.onheap.memory.mb`).
    pub const DEFAULT_MEMORY_MB: f64 = 128.0;
    /// Default bandwidth demand when the user gives no hint.
    pub const DEFAULT_BANDWIDTH: f64 = 0.0;

    /// Creates a request with explicit values for all three dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any value is negative or not finite.
    pub fn new(cpu_points: f64, memory_mb: f64, bandwidth: f64) -> Self {
        let r = Self {
            cpu_points,
            memory_mb,
            bandwidth,
        };
        r.validate();
        r
    }

    /// A zero request (consumes nothing). Useful in tests and as the
    /// additive identity for [`ResourceRequest::saturating_add`].
    pub fn zero() -> Self {
        Self {
            cpu_points: 0.0,
            memory_mb: 0.0,
            bandwidth: 0.0,
        }
    }

    /// Component-wise sum of two requests.
    pub fn saturating_add(&self, other: &Self) -> Self {
        Self {
            cpu_points: self.cpu_points + other.cpu_points,
            memory_mb: self.memory_mb + other.memory_mb,
            bandwidth: self.bandwidth + other.bandwidth,
        }
    }

    /// Scales the request by a non-negative factor (e.g. multiply a
    /// per-instance request by a component's parallelism).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Self {
            cpu_points: self.cpu_points * factor,
            memory_mb: self.memory_mb * factor,
            bandwidth: self.bandwidth * factor,
        }
    }

    fn validate(&self) {
        for (name, v) in [
            ("cpu_points", self.cpu_points),
            ("memory_mb", self.memory_mb),
            ("bandwidth", self.bandwidth),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "resource dimension `{name}` must be finite and non-negative, got {v}"
            );
        }
    }
}

impl Default for ResourceRequest {
    /// The defaults Storm applies when the topology author supplies no
    /// resource hints.
    fn default() -> Self {
        Self {
            cpu_points: Self::DEFAULT_CPU_POINTS,
            memory_mb: Self::DEFAULT_MEMORY_MB,
            bandwidth: Self::DEFAULT_BANDWIDTH,
        }
    }
}

impl fmt::Display for ResourceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{cpu: {:.1} pts, mem: {:.1} MB, bw: {:.1}}}",
            self.cpu_points, self.memory_mb, self.bandwidth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_storm_conventions() {
        let r = ResourceRequest::default();
        assert_eq!(r.cpu_points, 10.0);
        assert_eq!(r.memory_mb, 128.0);
        assert_eq!(r.bandwidth, 0.0);
    }

    #[test]
    fn zero_is_additive_identity() {
        let r = ResourceRequest::new(50.0, 1024.0, 3.0);
        let sum = r.saturating_add(&ResourceRequest::zero());
        assert_eq!(sum, r);
    }

    #[test]
    fn add_is_component_wise() {
        let a = ResourceRequest::new(10.0, 100.0, 1.0);
        let b = ResourceRequest::new(5.0, 28.0, 2.0);
        let s = a.saturating_add(&b);
        assert_eq!(s.cpu_points, 15.0);
        assert_eq!(s.memory_mb, 128.0);
        assert_eq!(s.bandwidth, 3.0);
    }

    #[test]
    fn scaled_multiplies_every_dimension() {
        let r = ResourceRequest::new(50.0, 100.0, 2.0).scaled(4.0);
        assert_eq!(r.cpu_points, 200.0);
        assert_eq!(r.memory_mb, 400.0);
        assert_eq!(r.bandwidth, 8.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_cpu_rejected() {
        ResourceRequest::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn nan_memory_rejected() {
        ResourceRequest::new(1.0, f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn negative_scale_rejected() {
        ResourceRequest::default().scaled(-2.0);
    }

    #[test]
    fn display_is_human_readable() {
        let r = ResourceRequest::new(50.0, 1024.0, 0.0);
        assert_eq!(r.to_string(), "{cpu: 50.0 pts, mem: 1024.0 MB, bw: 0.0}");
    }
}
