//! Wire and CPU cost model (§7.1 of the thesis).
//!
//! Chapter 7 models the time to send a message between two nodes as a fixed
//! cost plus a per-byte cost, and the CPU time to digest or MAC a message
//! likewise as `fixed + per_byte * size`. Chapter 8.2 calibrates those
//! parameters on the testbed (600 MHz PIII, switched 100 Mb/s Ethernet).
//! The simulator charges virtual time using the same model; defaults below
//! are calibrated to the thesis's reported magnitudes so the regenerated
//! figures have the paper's shape. The live-path benchmark (`benchmark/`)
//! measures our own primitives (`crypto.mac_ns`, `crypto.digest_ns_per_kb`)
//! for comparison.

use serde::{Deserialize, Serialize};

/// Cost parameters for one `fixed + per_byte * size` component.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinearCost {
    /// Fixed cost in microseconds.
    pub fixed_us: f64,
    /// Marginal cost per byte in microseconds.
    pub per_byte_us: f64,
}

impl LinearCost {
    /// Evaluates the model for a message of `bytes` bytes.
    pub fn eval(&self, bytes: usize) -> f64 {
        self.fixed_us + self.per_byte_us * bytes as f64
    }
}

/// The full cost model used by the simulator and the analytic model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// CPU time to send a message (syscall + protocol stack), §7.1.3.
    pub send: LinearCost,
    /// CPU time to receive a message, §7.1.3.
    pub recv: LinearCost,
    /// Network transit time (wire + switch), §7.1.3.
    pub wire: LinearCost,
    /// MD5 digest computation, §7.1.1.
    pub digest: LinearCost,
    /// MAC computation over a fixed-size header, §7.1.2 (per-byte term is
    /// tiny because MACs cover only headers; kept for generality).
    pub mac: LinearCost,
    /// Time to generate a public-key signature (1024-bit modulus), §8.2.2.
    pub sign_us: f64,
    /// Time to verify a public-key signature (small public exponent).
    pub verify_us: f64,
    /// Service execution time per operation (workload parameter).
    pub execute_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::thesis_testbed()
    }
}

impl CostModel {
    /// Parameters calibrated to the thesis testbed's reported magnitudes:
    /// ~40 µs per UDP send/receive pair for small messages, digests at
    /// ~25 MB/s-equivalent fixed+marginal costs, sub-microsecond MACs, and
    /// millisecond-scale signatures (the three-orders-of-magnitude gap of
    /// §8.2.2).
    pub fn thesis_testbed() -> Self {
        CostModel {
            send: LinearCost {
                fixed_us: 19.0,
                per_byte_us: 0.011,
            },
            recv: LinearCost {
                fixed_us: 21.0,
                per_byte_us: 0.012,
            },
            wire: LinearCost {
                fixed_us: 12.0,
                per_byte_us: 0.08, // 100 Mb/s ≈ 0.08 µs/byte.
            },
            digest: LinearCost {
                fixed_us: 1.0,
                per_byte_us: 0.004,
            },
            mac: LinearCost {
                fixed_us: 0.8,
                per_byte_us: 0.001,
            },
            sign_us: 42_000.0, // Rabin 1024-bit sign on the PIII (§8.2.2).
            verify_us: 620.0,  // Rabin verify is much cheaper.
            execute_us: 5.0,
        }
    }

    /// A zero-cost model: messages are free and instantaneous. Used by
    /// protocol-logic tests that only care about ordering, not timing.
    pub fn zero() -> Self {
        let z = LinearCost {
            fixed_us: 0.0,
            per_byte_us: 0.0,
        };
        CostModel {
            send: z,
            recv: z,
            wire: z,
            digest: z,
            mac: z,
            sign_us: 0.0,
            verify_us: 0.0,
            execute_us: 0.0,
        }
    }

    /// One-way latency for a message of `bytes` from send call to delivery,
    /// excluding receiver CPU (which the receiving node is charged).
    pub fn one_way_us(&self, bytes: usize) -> f64 {
        self.send.eval(bytes) + self.wire.eval(bytes)
    }

    /// Scales a component group for the §8.3.5 sensitivity analysis.
    pub fn scaled(mut self, crypto_factor: f64, wire_factor: f64) -> Self {
        self.digest.fixed_us *= crypto_factor;
        self.digest.per_byte_us *= crypto_factor;
        self.mac.fixed_us *= crypto_factor;
        self.mac.per_byte_us *= crypto_factor;
        self.sign_us *= crypto_factor;
        self.verify_us *= crypto_factor;
        self.wire.fixed_us *= wire_factor;
        self.wire.per_byte_us *= wire_factor;
        self.send.fixed_us *= wire_factor;
        self.send.per_byte_us *= wire_factor;
        self.recv.fixed_us *= wire_factor;
        self.recv.per_byte_us *= wire_factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_cost_eval() {
        let c = LinearCost {
            fixed_us: 10.0,
            per_byte_us: 0.5,
        };
        assert!((c.eval(0) - 10.0).abs() < 1e-9);
        assert!((c.eval(100) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn signature_mac_gap_is_orders_of_magnitude() {
        let m = CostModel::thesis_testbed();
        let mac_cost = m.mac.eval(64);
        assert!(
            m.sign_us / mac_cost > 1000.0,
            "thesis: MACs are three orders of magnitude cheaper"
        );
    }

    #[test]
    fn one_way_grows_with_size() {
        let m = CostModel::thesis_testbed();
        assert!(m.one_way_us(4096) > m.one_way_us(64));
    }

    #[test]
    fn zero_model_is_free() {
        let m = CostModel::zero();
        assert_eq!(m.one_way_us(1 << 20), 0.0);
        assert_eq!(m.sign_us, 0.0);
    }

    #[test]
    fn scaling_affects_right_components() {
        let base = CostModel::thesis_testbed();
        let scaled = base.scaled(2.0, 1.0);
        assert!((scaled.sign_us - 2.0 * base.sign_us).abs() < 1e-9);
        assert!((scaled.wire.fixed_us - base.wire.fixed_us).abs() < 1e-9);
        let scaled = base.scaled(1.0, 3.0);
        assert!((scaled.wire.per_byte_us - 3.0 * base.wire.per_byte_us).abs() < 1e-9);
        assert!((scaled.mac.fixed_us - base.mac.fixed_us).abs() < 1e-9);
    }
}
