//! The customized DMA module (paper Sec. V-D, Fig. 14): the write
//! path's compression module.
//!
//! Dense data flows straight through; sparse-eligible data (the MS1 P1
//! streams) is threshold-pruned into values + indices. The read path's
//! decoder, which fetches only the co-operand rows a pruned stream
//! keeps, is not simulated here: `arch` charges it in closed form, as
//! BP MACs and weight fetches scaled by the P1 density.

use eta_tensor::{CompressionStats, SparseVec};

/// What the write path emitted for one stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WritePacket {
    /// Dense pass-through: original bytes.
    Dense {
        /// Bytes written.
        bytes: u64,
    },
    /// Compressed: pruned values plus indices.
    Compressed {
        /// The surviving values and their positions.
        sparse: SparseVec,
        /// Bytes written (best of pair/bitmap encodings).
        bytes: u64,
    },
}

impl WritePacket {
    /// Bytes this packet moves to memory.
    pub fn bytes(&self) -> u64 {
        match self {
            WritePacket::Dense { bytes } | WritePacket::Compressed { bytes, .. } => *bytes,
        }
    }
}

/// The DMA engine's compression module.
#[derive(Debug, Clone)]
pub struct DmaModule {
    threshold: f32,
    stats: CompressionStats,
}

impl DmaModule {
    /// Creates a DMA whose compression module prunes at `threshold`.
    pub fn new(threshold: f32) -> Self {
        DmaModule {
            threshold,
            stats: CompressionStats::default(),
        }
    }

    /// Write path: dense data passes through; sparse-eligible data goes
    /// through the compression module (paper Fig. 14's "Sparse?" fork).
    pub fn write(&mut self, values: &[f32], sparse_eligible: bool) -> WritePacket {
        if !sparse_eligible {
            return WritePacket::Dense {
                bytes: (values.len() * 4) as u64,
            };
        }
        let sparse = SparseVec::compress(values, self.threshold);
        let bytes = sparse.best_bytes();
        self.stats.merge(&sparse.stats());
        WritePacket::Compressed { sparse, bytes }
    }

    /// Aggregate compression statistics so far.
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }
}

impl DmaModule {
    /// [`DmaModule::write`] plus metric recording.
    ///
    /// Records `accel_dma_write_bytes_total{mode}` (mode = `dense` /
    /// `compressed`) and, for compressed packets, the achieved
    /// compressed-over-dense ratio into the
    /// `accel_dma_compression_ratio` histogram (decile buckets — the
    /// encoder never exceeds dense size).
    pub fn write_instrumented(
        &mut self,
        values: &[f32],
        sparse_eligible: bool,
        telemetry: Option<&eta_telemetry::Telemetry>,
    ) -> WritePacket {
        let packet = self.write(values, sparse_eligible);
        if let Some(t) = telemetry {
            match &packet {
                WritePacket::Dense { bytes } => t.incr_with(
                    eta_telemetry::keys::ACCEL_DMA_WRITE_BYTES_TOTAL,
                    eta_telemetry::labels!(mode = "dense"),
                    *bytes,
                ),
                WritePacket::Compressed { bytes, .. } => {
                    t.incr_with(
                        eta_telemetry::keys::ACCEL_DMA_WRITE_BYTES_TOTAL,
                        eta_telemetry::labels!(mode = "compressed"),
                        *bytes,
                    );
                    let dense = (values.len() * 4) as u64;
                    if dense > 0 {
                        t.observe_in(
                            eta_telemetry::keys::ACCEL_DMA_COMPRESSION_RATIO,
                            eta_telemetry::Labels::new(),
                            crate::arch::OCCUPANCY_BUCKETS,
                            *bytes as f64 / dense as f64,
                        );
                    }
                }
            }
        }
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_write_passes_through() {
        let mut dma = DmaModule::new(0.1);
        let p = dma.write(&[0.01, 0.5, 0.02], false);
        assert_eq!(p.bytes(), 12);
        assert_eq!(dma.stats().total, 0);
    }

    #[test]
    fn sparse_write_compresses_and_counts() {
        let mut dma = DmaModule::new(0.1);
        let values: Vec<f32> = (0..100)
            .map(|i| if i % 4 == 0 { 0.9 } else { 0.01 })
            .collect();
        let p = dma.write(&values, true);
        assert!(p.bytes() < 400, "compressed below dense size");
        assert_eq!(dma.stats().total, 100);
        assert_eq!(dma.stats().kept, 25);
    }
}
