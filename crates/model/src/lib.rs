//! The Chapter 7 analytic performance model.
//!
//! The thesis builds a latency and throughput model for BFT from three
//! component models — digest computation (§7.1.1), MAC computation
//! (§7.1.2), and communication (§7.1.3), each of the form
//! `fixed + per_byte × size` — and derives predictions for read-only
//! (§7.3.1) and read-write (§7.3.2) latency and throughput (§7.4). This
//! crate reproduces those formulas; the live-path benchmark
//! (`benchmark/`) compares its predictions against measured latency and
//! throughput, as §8.3 compares the thesis model against the testbed.

use serde::{Deserialize, Serialize};

/// One `fixed + per_byte × size` component model (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Component {
    /// Fixed cost in microseconds.
    pub fixed_us: f64,
    /// Marginal cost per byte in microseconds.
    pub per_byte_us: f64,
}

impl Component {
    /// Evaluates the component for `bytes` bytes.
    pub fn eval(&self, bytes: f64) -> f64 {
        self.fixed_us + self.per_byte_us * bytes
    }
}

/// The model parameters (mirrors the simulator's cost model so predictions
/// and measurements share a vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Replica count.
    pub n: usize,
    /// Fault bound (`n = 3f + 1` for the optimal configuration).
    pub f: usize,
    /// Digest computation (§7.1.1).
    pub digest: Component,
    /// MAC computation over a fixed-size header (§7.1.2).
    pub mac: Component,
    /// Per-message send CPU (§7.1.3).
    pub send: Component,
    /// Per-message receive CPU (§7.1.3).
    pub recv: Component,
    /// Wire transit time (§7.1.3).
    pub wire: Component,
    /// Service execution time per operation.
    pub execute_us: f64,
    /// Protocol header size in bytes (Figure 6-1: small fixed headers).
    pub header_bytes: f64,
}

impl ModelParams {
    /// Parameters matching `bft_net::CostModel::thesis_testbed()` for
    /// `n = 3f + 1` replicas.
    pub fn thesis(f: usize) -> Self {
        ModelParams {
            n: 3 * f + 1,
            f,
            digest: Component {
                fixed_us: 1.0,
                per_byte_us: 0.004,
            },
            mac: Component {
                fixed_us: 0.8,
                per_byte_us: 0.001,
            },
            send: Component {
                fixed_us: 19.0,
                per_byte_us: 0.011,
            },
            recv: Component {
                fixed_us: 21.0,
                per_byte_us: 0.012,
            },
            wire: Component {
                fixed_us: 12.0,
                per_byte_us: 0.08,
            },
            execute_us: 5.0,
            header_bytes: 64.0,
        }
    }

    fn mac_us(&self) -> f64 {
        self.mac.eval(self.header_bytes)
    }

    /// One-way time for a message of `bytes`: sender CPU + wire. Receiver
    /// CPU is accounted separately because it overlaps with other work in
    /// the pipeline only partially.
    fn one_way_us(&self, bytes: f64) -> f64 {
        self.send.eval(bytes) + self.wire.eval(bytes)
    }

    /// Time for a node to absorb a message: receive CPU + digest + MAC
    /// verification.
    fn absorb_us(&self, bytes: f64) -> f64 {
        self.recv.eval(bytes) + self.digest.eval(bytes) + self.mac_us()
    }

    /// Predicted latency of a read-only operation (§7.3.1): one round
    /// trip. The client multicasts the request (authenticator with `n`
    /// entries), each replica verifies, executes, and replies; the client
    /// needs a quorum of replies but they travel in parallel, so the
    /// slowest single chain dominates.
    pub fn read_only_latency_us(&self, arg_bytes: usize, result_bytes: usize) -> f64 {
        let req = arg_bytes as f64 + self.header_bytes;
        let rep = result_bytes as f64 + self.header_bytes;
        // Client: digest the op + generate an n-entry authenticator.
        let client_send = self.digest.eval(req) + self.n as f64 * self.mac_us();
        // Replica path: absorb, execute, reply (digest + single MAC).
        let replica = self.absorb_us(req) + self.execute_us + self.digest.eval(rep) + self.mac_us();
        // Client absorbs 2f+1 replies; only the result-bearing one is big.
        let client_recv =
            self.absorb_us(rep) + (2 * self.f) as f64 * self.absorb_us(self.header_bytes);
        client_send + self.one_way_us(req) + replica + self.one_way_us(rep) + client_recv
    }

    /// Predicted latency of a read-write operation with tentative
    /// execution (§7.3.2): request → pre-prepare → prepare → reply, four
    /// message delays.
    pub fn read_write_latency_us(&self, arg_bytes: usize, result_bytes: usize) -> f64 {
        let req = arg_bytes as f64 + self.header_bytes;
        let rep = result_bytes as f64 + self.header_bytes;
        let pre_prepare = req + self.header_bytes; // Inline request.
        let prepare = self.header_bytes;
        let auth_gen = self.n as f64 * self.mac_us();

        // Client → primary.
        let client_send = self.digest.eval(req) + auth_gen;
        let leg1 = self.one_way_us(req);
        // Primary: absorb request, build and send pre-prepare.
        let primary = self.absorb_us(req) + self.digest.eval(pre_prepare) + auth_gen;
        let leg2 = self.one_way_us(pre_prepare);
        // Backups: absorb pre-prepare, send prepare.
        let backup = self.absorb_us(pre_prepare) + self.digest.eval(prepare) + auth_gen;
        let leg3 = self.one_way_us(prepare);
        // Gathering 2f prepares: the replica absorbs them serially.
        let gather = (2 * self.f) as f64 * self.absorb_us(prepare);
        // Tentative execution + reply.
        let exec_reply = self.execute_us + self.digest.eval(rep) + self.mac_us();
        let leg4 = self.one_way_us(rep);
        // Client gathers a quorum of tentative replies.
        let client_recv =
            self.absorb_us(rep) + (2 * self.f) as f64 * self.absorb_us(self.header_bytes);

        client_send
            + leg1
            + primary
            + leg2
            + backup
            + leg3
            + gather
            + exec_reply
            + leg4
            + client_recv
    }

    /// Extra latency without tentative execution: the commit phase adds
    /// one message delay plus a quorum gather (§5.1.2).
    pub fn commit_phase_penalty_us(&self) -> f64 {
        let commit = self.header_bytes;
        self.digest.eval(commit)
            + self.n as f64 * self.mac_us()
            + self.one_way_us(commit)
            + (2 * self.f + 1) as f64 * self.absorb_us(commit)
    }

    /// Predicted read-write throughput in operations per second with
    /// batches of `batch` requests (§7.4.2). The primary is the
    /// bottleneck: per batch it absorbs `batch` requests, sends one
    /// pre-prepare, absorbs `2f` prepares and `2f+1` commits, executes,
    /// and replies to every client.
    pub fn read_write_throughput_ops(
        &self,
        arg_bytes: usize,
        result_bytes: usize,
        batch: usize,
    ) -> f64 {
        let req = arg_bytes as f64 + self.header_bytes;
        let rep = result_bytes as f64 + self.header_bytes;
        let b = batch as f64;
        let pre_prepare = b * req + self.header_bytes;
        let per_batch = b * self.absorb_us(req)
            + self.digest.eval(pre_prepare)
            + self.n as f64 * self.mac_us()
            + self.send.eval(pre_prepare)
            + (4 * self.f + 1) as f64 * self.absorb_us(self.header_bytes)
            + self.n as f64 * self.mac_us() // Commit authenticator.
            + self.send.eval(self.header_bytes)
            + b * (self.execute_us + self.digest.eval(rep) + self.mac_us() + self.send.eval(rep));
        1e6 * b / per_batch
    }

    /// Predicted read-only throughput per replica (§7.4.1): replicas
    /// handle read-only requests independently; the quorum requirement
    /// means each replica sees every request, so the per-replica rate is
    /// the system rate.
    pub fn read_only_throughput_ops(&self, arg_bytes: usize, result_bytes: usize) -> f64 {
        let req = arg_bytes as f64 + self.header_bytes;
        let rep = result_bytes as f64 + self.header_bytes;
        let per_op = self.absorb_us(req)
            + self.execute_us
            + self.digest.eval(rep)
            + self.mac_us()
            + self.send.eval(rep);
        1e6 / per_op
    }

    /// Predicted latency of BFT-PK for the same operation: every protocol
    /// message costs a signature instead of MACs (§8.3.3's comparison).
    pub fn read_write_latency_pk_us(
        &self,
        arg_bytes: usize,
        result_bytes: usize,
        sign_us: f64,
        verify_us: f64,
    ) -> f64 {
        // Replace each authenticator generation (n MACs) with one signature
        // and each MAC verification with one signature verification along
        // the critical path.
        let mac_path = self.read_write_latency_us(arg_bytes, result_bytes);
        let macs_on_path = 3.0 * self.n as f64 // Three authenticator generations.
            + 1.0                              // Reply MAC.
            + 3.0                              // Absorb verifications (req, pp, prepare).
            + (2 * self.f) as f64              // Prepare gathering.
            + (2 * self.f + 1) as f64; // Client reply verification.
        let sig_ops = 4.0; // Client request, pre-prepare, prepare, reply.
        let verify_ops = 3.0 + (2 * self.f) as f64 + (2 * self.f + 1) as f64;
        mac_path - macs_on_path * self.mac_us() + sig_ops * sign_us + verify_ops * verify_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> ModelParams {
        ModelParams::thesis(1)
    }

    #[test]
    fn read_only_is_faster_than_read_write() {
        let m = m();
        assert!(m.read_only_latency_us(0, 0) < m.read_write_latency_us(0, 0));
    }

    #[test]
    fn latency_grows_with_sizes() {
        let m = m();
        assert!(m.read_write_latency_us(4096, 0) > m.read_write_latency_us(0, 0));
        assert!(m.read_write_latency_us(0, 4096) > m.read_write_latency_us(0, 0));
        assert!(m.read_only_latency_us(0, 4096) > m.read_only_latency_us(0, 0));
    }

    #[test]
    fn batching_improves_throughput() {
        let m = m();
        let t1 = m.read_write_throughput_ops(0, 0, 1);
        let t16 = m.read_write_throughput_ops(0, 0, 16);
        assert!(t16 > 2.0 * t1, "batching amortizes: {t1} vs {t16}");
    }

    #[test]
    fn commit_phase_penalty_positive() {
        assert!(m().commit_phase_penalty_us() > 0.0);
    }

    #[test]
    fn more_replicas_cost_more() {
        let m1 = ModelParams::thesis(1);
        let m3 = ModelParams::thesis(3);
        assert!(m3.read_write_latency_us(0, 0) > m1.read_write_latency_us(0, 0));
        assert!(m3.read_write_throughput_ops(0, 0, 16) < m1.read_write_throughput_ops(0, 0, 16));
    }

    #[test]
    fn pk_is_much_slower_with_thesis_signature_costs() {
        let m = m();
        let mac = m.read_write_latency_us(0, 0);
        let pk = m.read_write_latency_pk_us(0, 0, 42_000.0, 620.0);
        assert!(
            pk > 10.0 * mac,
            "signatures dominate: mac={mac:.0}us pk={pk:.0}us"
        );
    }

    #[test]
    fn crossover_with_many_replicas() {
        // §8.3.3: authenticator generation grows with n; with the thesis's
        // numbers BFT stays cheaper than BFT-PK up to hundreds of replicas.
        let big = ModelParams {
            n: 300,
            f: 99,
            ..ModelParams::thesis(1)
        };
        let gen_cost_300 = 300.0 * big.mac_us();
        assert!(
            gen_cost_300 < 42_000.0,
            "even at n=300 an authenticator beats one signature"
        );
    }

    #[test]
    fn read_only_throughput_exceeds_read_write_unbatched() {
        let m = m();
        assert!(m.read_only_throughput_ops(0, 0) > m.read_write_throughput_ops(0, 0, 1));
    }
}
