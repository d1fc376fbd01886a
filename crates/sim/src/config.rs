//! Accelerator configuration (the architecture of Fig. 10/11 and the five
//! implementations of Table I).

use serde::{Deserialize, Serialize};

/// DRAM timing/interface model: the paper evaluates a 2 GB DDR3 part with
/// 6.4 GB/s peak bandwidth at 100 MHz, against a 500 MHz core
/// (Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Peak bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// First-access latency in core cycles (row activation + controller).
    pub latency_cycles: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            bandwidth_bytes_per_s: 6.4e9,
            latency_cycles: 100,
        }
    }
}

/// Limits-style caps on every [`ArchConfig`] field, enforced by
/// [`ArchConfig::validate`].
///
/// The struct is `pub` + `Deserialize` and, since the `/v1/*` endpoints
/// accept full `arch` objects, configurations arrive from untrusted JSON.
/// The caps keep every derived quantity (PE count, LReg/GBuf/GReg totals,
/// effective on-chip memory, stall arithmetic) far away from integer
/// overflow and keep the planner's feasibility region bounded, so a hostile
/// configuration can be *rejected with the violated invariant named* instead
/// of panicking, hanging or exhausting memory. Generous: every cap is well
/// beyond any design the paper's model is meaningful for (Table I tops out
/// at 64×32 PEs and 131.625 KiB effective memory).
pub mod caps {
    /// Max PE array rows / columns (Table I's largest array is 64×32).
    pub const MAX_PE_DIM: usize = 4096;
    /// Max LReg entries (16-bit Psum slots) per PE.
    pub const MAX_LREG_ENTRIES_PER_PE: usize = 1 << 16;
    /// Max entries in each GBuf (input and weight separately).
    pub const MAX_GBUF_ENTRIES: usize = 1 << 26;
    /// Max total GReg bytes.
    pub const MAX_GREG_BYTES: usize = 1 << 30;
    /// Max entries in one input GReg segment.
    pub const MAX_GREG_SEGMENT_ENTRIES: usize = 1 << 20;
    /// Max *derived* effective on-chip memory (LRegs + GBufs) in bytes —
    /// 1 GiB, mirroring the service's `mem_kib` limit. This is the cap
    /// that bounds the tiling-search feasibility region a configuration
    /// can open up.
    pub const MAX_EFFECTIVE_ONCHIP_BYTES: u128 = 1 << 30;
    /// Core clock range in Hz.
    pub const MIN_CORE_FREQ_HZ: f64 = 1e3;
    /// Core clock range in Hz.
    pub const MAX_CORE_FREQ_HZ: f64 = 1e12;
    /// DRAM bandwidth range in bytes/s.
    pub const MIN_DRAM_BW: f64 = 1e3;
    /// DRAM bandwidth range in bytes/s.
    pub const MAX_DRAM_BW: f64 = 1e15;
    /// Max first-access DRAM latency in core cycles.
    pub const MAX_DRAM_LATENCY_CYCLES: u64 = 1_000_000_000;
}

/// Full architectural configuration of the accelerator.
///
/// Use [`ArchConfig::implementation`] for the five Table I designs or the
/// builder-style setters for custom ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// PE array rows `p`.
    pub pe_rows: usize,
    /// PE array columns `q`.
    pub pe_cols: usize,
    /// PE group rows `p_g` (a weight GReg row is shared by `p_g` PE rows).
    pub group_rows: usize,
    /// PE group columns `q_g` (an input GReg segment feeds `q_g` PEs).
    pub group_cols: usize,
    /// LReg entries (16-bit Psum slots) per PE — `r` in the paper.
    pub lreg_entries_per_pe: usize,
    /// Input GBuf capacity in 16-bit entries.
    pub igbuf_entries: usize,
    /// Weight GBuf capacity in 16-bit entries.
    pub wgbuf_entries: usize,
    /// Total GReg capacity in bytes (Table I's "GReg size"), used for
    /// utilization and energy reporting.
    pub greg_bytes: usize,
    /// Capacity of one input GReg segment in 16-bit entries (64 in the
    /// Fig. 11 example). Bounds the per-PE-row input halo `xs'·ys'`.
    pub greg_segment_entries: usize,
    /// Core clock in Hz.
    pub core_freq_hz: f64,
    /// DRAM interface model.
    pub dram: DramConfig,
}

impl ArchConfig {
    /// The example design of Section V: 16×16 PEs, 4×4 groups, 128-entry
    /// LRegs per PE (64 KB of Psums total), 2 KB IGBuf + 0.5 KB WGBuf.
    /// This is implementation 1 of Table I.
    #[must_use]
    pub fn example() -> Self {
        ArchConfig::implementation(1)
    }

    /// One of the five implementations of Table I.
    ///
    /// | # | PEs    | GBuf    | LReg/PE | GReg  | effective memory |
    /// |---|--------|---------|---------|-------|------------------|
    /// | 1 | 16×16  | 2.5 KB  | 256 B   | 10 KB | 66.5 KB          |
    /// | 2 | 32×16  | 2.5 KB  | 128 B   | 15 KB | 66.5 KB          |
    /// | 3 | 32×32  | 2.5 KB  | 64 B    | 18 KB | 66.5 KB          |
    /// | 4 | 32×32  | 3.625 KB| 128 B   | 27 KB | 131.625 KB       |
    /// | 5 | 64×32  | 3.625 KB| 64 B    | 36 KB | 131.625 KB       |
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in `1..=5`.
    #[must_use]
    pub fn implementation(index: usize) -> Self {
        // (p, q, lreg bytes/PE, igbuf entries, greg KB)
        let (p, q, lreg_bytes, igbuf_entries, greg_kb) = match index {
            1 => (16, 16, 256, 1024, 10),
            2 => (32, 16, 128, 1024, 15),
            3 => (32, 32, 64, 1024, 18),
            4 => (32, 32, 128, 1600, 27),
            5 => (64, 32, 64, 1600, 36),
            other => panic!("Table I defines implementations 1-5, got {other}"),
        };
        ArchConfig {
            pe_rows: p,
            pe_cols: q,
            group_rows: 4,
            group_cols: 4,
            lreg_entries_per_pe: lreg_bytes / 2,
            igbuf_entries,
            wgbuf_entries: 256,
            greg_bytes: greg_kb * 1024,
            greg_segment_entries: 64,
            core_freq_hz: 500e6,
            dram: DramConfig::default(),
        }
    }

    /// Total number of PEs.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.pe_rows * self.pe_cols
    }

    /// Total Psum storage across all LRegs, in 16-bit words.
    #[must_use]
    pub fn lreg_total_entries(&self) -> usize {
        self.pe_count() * self.lreg_entries_per_pe
    }

    /// LReg capacity per PE in bytes.
    #[must_use]
    pub fn lreg_bytes_per_pe(&self) -> usize {
        self.lreg_entries_per_pe * 2
    }

    /// Total GBuf capacity (input + weight) in bytes.
    #[must_use]
    pub fn gbuf_bytes(&self) -> usize {
        (self.igbuf_entries + self.wgbuf_entries) * 2
    }

    /// The paper's *effective on-chip memory*: Psum LRegs + GBufs (GRegs
    /// hold duplicated data and do not count — Section III).
    #[must_use]
    pub fn effective_onchip_bytes(&self) -> usize {
        self.effective_onchip_words() * 2
    }

    /// Effective on-chip memory in 16-bit words (the `S` of the theory).
    #[must_use]
    pub fn effective_onchip_words(&self) -> usize {
        self.plan_arch().effective_onchip_words()
    }

    /// DRAM bandwidth expressed in 16-bit words per core cycle.
    #[must_use]
    pub fn dram_words_per_cycle(&self) -> f64 {
        self.dram.bandwidth_bytes_per_s / self.core_freq_hz / 2.0
    }

    /// A hashable key covering *every* field of this configuration (float
    /// fields by bit pattern, so distinct configurations never alias) —
    /// what candidate dedup and caches whose value depends on the whole
    /// configuration should use. The planner's memo keys on the narrower
    /// [`ArchConfig::plan_arch`].
    ///
    /// Defined here, next to the struct, via exhaustive destructuring: when
    /// `ArchConfig` grows a field, this method stops compiling and forces
    /// the key (and therefore every cache) to account for it.
    #[must_use]
    pub fn cache_key(&self) -> ArchCacheKey {
        let ArchConfig {
            pe_rows,
            pe_cols,
            group_rows,
            group_cols,
            lreg_entries_per_pe,
            igbuf_entries,
            wgbuf_entries,
            greg_bytes,
            greg_segment_entries,
            core_freq_hz,
            dram,
        } = *self;
        let DramConfig {
            bandwidth_bytes_per_s,
            latency_cycles,
        } = dram;
        ArchCacheKey {
            pe_rows,
            pe_cols,
            group_rows,
            group_cols,
            lreg_entries_per_pe,
            igbuf_entries,
            wgbuf_entries,
            greg_bytes,
            greg_segment_entries,
            core_freq_bits: core_freq_hz.to_bits(),
            dram_bw_bits: bandwidth_bytes_per_s.to_bits(),
            dram_latency: latency_cycles,
        }
    }

    /// The fields that fix a tiling plan (Section V): the LReg/PE-array
    /// mapping, the WGBuf, the IGBuf and the GReg segment. Configurations
    /// that differ only elsewhere plan identically, so the planner keys its
    /// memo on this projection and reads nothing else.
    ///
    /// Built by exhaustive destructuring, like [`ArchConfig::cache_key`]: a
    /// new `ArchConfig` field stops this method compiling until someone
    /// decides whether it affects planning.
    #[must_use]
    pub fn plan_arch(&self) -> PlanArch {
        let ArchConfig {
            pe_rows,
            pe_cols,
            // Group shape sets GReg copy counts, which the simulator
            // counts but no mapping constraint reads.
            group_rows: _,
            group_cols: _,
            lreg_entries_per_pe,
            igbuf_entries,
            wgbuf_entries,
            // Total GReg bytes only scale utilization and energy reports;
            // the per-segment capacity is what bounds a mapping.
            greg_bytes: _,
            greg_segment_entries,
            // The clock converts cycles to time; plans minimise words.
            core_freq_hz: _,
            // DRAM timing sets stall cycles, not which tiling is feasible
            // or DRAM-minimal.
            dram: _,
        } = *self;
        PlanArch {
            pe_rows,
            pe_cols,
            lreg_entries_per_pe,
            igbuf_entries,
            wgbuf_entries,
            greg_segment_entries,
        }
    }

    /// Validates the structural invariants (group sizes divide the array,
    /// everything positive) and the [`caps`]-module limits on every field
    /// plus the derived effective on-chip memory.
    ///
    /// Safe on *any* field values — including `usize::MAX` and non-finite
    /// floats from hostile JSON — because every cap is checked before the
    /// corresponding product is formed (and the one derived product is
    /// computed in `u128`). Boundaries that accept untrusted
    /// configurations surface the returned message as
    /// [`SimError::InvalidArch`](crate::SimError::InvalidArch).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.pe_rows == 0 || self.pe_cols == 0 {
            return Err("PE array must be non-empty".into());
        }
        if self.pe_rows > caps::MAX_PE_DIM || self.pe_cols > caps::MAX_PE_DIM {
            return Err(format!(
                "PE array {}x{} exceeds the {}x{} cap",
                self.pe_rows,
                self.pe_cols,
                caps::MAX_PE_DIM,
                caps::MAX_PE_DIM
            ));
        }
        if self.group_rows == 0 || self.group_cols == 0 {
            return Err("PE groups must be non-empty".into());
        }
        if !self.pe_rows.is_multiple_of(self.group_rows) {
            return Err(format!(
                "group rows {} must divide PE rows {}",
                self.group_rows, self.pe_rows
            ));
        }
        if !self.pe_cols.is_multiple_of(self.group_cols) {
            return Err(format!(
                "group cols {} must divide PE cols {}",
                self.group_cols, self.pe_cols
            ));
        }
        if self.lreg_entries_per_pe == 0 {
            return Err("LRegs must hold at least one Psum".into());
        }
        if self.lreg_entries_per_pe > caps::MAX_LREG_ENTRIES_PER_PE {
            return Err(format!(
                "LReg size {} entries/PE exceeds the {} cap",
                self.lreg_entries_per_pe,
                caps::MAX_LREG_ENTRIES_PER_PE
            ));
        }
        if self.igbuf_entries == 0 || self.wgbuf_entries == 0 {
            return Err("GBufs must be non-empty".into());
        }
        if self.igbuf_entries > caps::MAX_GBUF_ENTRIES
            || self.wgbuf_entries > caps::MAX_GBUF_ENTRIES
        {
            return Err(format!(
                "GBuf size {}/{} entries exceeds the {} cap",
                self.igbuf_entries,
                self.wgbuf_entries,
                caps::MAX_GBUF_ENTRIES
            ));
        }
        if self.greg_bytes == 0 || self.greg_segment_entries == 0 {
            return Err("GRegs must be non-empty".into());
        }
        if self.greg_bytes > caps::MAX_GREG_BYTES {
            return Err(format!(
                "GReg size {} bytes exceeds the {} cap",
                self.greg_bytes,
                caps::MAX_GREG_BYTES
            ));
        }
        if self.greg_segment_entries > caps::MAX_GREG_SEGMENT_ENTRIES {
            return Err(format!(
                "GReg segment {} entries exceeds the {} cap",
                self.greg_segment_entries,
                caps::MAX_GREG_SEGMENT_ENTRIES
            ));
        }
        // Derived cap, formed after the per-field caps so the products
        // cannot overflow even u128 (4096² PEs × 2¹⁶ entries × 2 B ≪ 2¹²⁸).
        let effective = u128::from(self.pe_rows as u64)
            * u128::from(self.pe_cols as u64)
            * u128::from(self.lreg_entries_per_pe as u64)
            * 2
            + (u128::from(self.igbuf_entries as u64) + u128::from(self.wgbuf_entries as u64)) * 2;
        if effective > caps::MAX_EFFECTIVE_ONCHIP_BYTES {
            return Err(format!(
                "effective on-chip memory {effective} bytes (LRegs + GBufs) exceeds the {} cap",
                caps::MAX_EFFECTIVE_ONCHIP_BYTES
            ));
        }
        if !self.core_freq_hz.is_finite()
            || self.core_freq_hz < caps::MIN_CORE_FREQ_HZ
            || self.core_freq_hz > caps::MAX_CORE_FREQ_HZ
        {
            return Err(format!(
                "core frequency must be in [{:e}, {:e}] Hz",
                caps::MIN_CORE_FREQ_HZ,
                caps::MAX_CORE_FREQ_HZ
            ));
        }
        if !self.dram.bandwidth_bytes_per_s.is_finite()
            || self.dram.bandwidth_bytes_per_s < caps::MIN_DRAM_BW
            || self.dram.bandwidth_bytes_per_s > caps::MAX_DRAM_BW
        {
            return Err(format!(
                "DRAM bandwidth must be in [{:e}, {:e}] bytes/s",
                caps::MIN_DRAM_BW,
                caps::MAX_DRAM_BW
            ));
        }
        if self.dram.latency_cycles > caps::MAX_DRAM_LATENCY_CYCLES {
            return Err(format!(
                "DRAM latency {} cycles exceeds the {} cap",
                self.dram.latency_cycles,
                caps::MAX_DRAM_LATENCY_CYCLES
            ));
        }
        Ok(())
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        ArchConfig::example()
    }
}

/// The value [`ArchConfig::cache_key`] returns: an opaque, hashable,
/// totally-ordered identity of one full architecture configuration. The
/// `Ord` impl (field-lexicographic, floats by bit pattern) gives sweep
/// results a canonical architecture tie-break that is independent of
/// candidate enumeration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchCacheKey {
    pe_rows: usize,
    pe_cols: usize,
    group_rows: usize,
    group_cols: usize,
    lreg_entries_per_pe: usize,
    igbuf_entries: usize,
    wgbuf_entries: usize,
    greg_bytes: usize,
    greg_segment_entries: usize,
    core_freq_bits: u64,
    dram_bw_bits: u64,
    dram_latency: u64,
}

/// The planning-relevant projection of an [`ArchConfig`], returned by
/// [`ArchConfig::plan_arch`]. Each field means what the `ArchConfig` field
/// of the same name means. Tiling planning and the PE-array mapping
/// ([`map_block`](crate::mapping::map_block)) read only these fields, so
/// the planner's memo keys on this value and candidates that differ only in
/// group shape, GReg total, clock or DRAM model share one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanArch {
    /// PE array rows `p`.
    pub pe_rows: usize,
    /// PE array columns `q`.
    pub pe_cols: usize,
    /// LReg entries (16-bit Psum slots) per PE.
    pub lreg_entries_per_pe: usize,
    /// Input GBuf capacity in 16-bit entries.
    pub igbuf_entries: usize,
    /// Weight GBuf capacity in 16-bit entries.
    pub wgbuf_entries: usize,
    /// Capacity of one input GReg segment in 16-bit entries.
    pub greg_segment_entries: usize,
}

impl PlanArch {
    /// Effective on-chip memory in 16-bit words: Psum LRegs + GBufs.
    #[must_use]
    pub fn effective_onchip_words(&self) -> usize {
        self.pe_rows * self.pe_cols * self.lreg_entries_per_pe
            + self.igbuf_entries
            + self.wgbuf_entries
    }
}

impl From<&ArchConfig> for PlanArch {
    fn from(arch: &ArchConfig) -> Self {
        arch.plan_arch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_effective_memory() {
        // Paper Table I: implementations 1-3 have 66.5 KB effective memory,
        // 4-5 have 131.625 KB.
        for i in 1..=3 {
            let c = ArchConfig::implementation(i);
            assert_eq!(c.effective_onchip_bytes(), 665 * 1024 / 10); // 66.5 KB
        }
        for i in 4..=5 {
            let c = ArchConfig::implementation(i);
            assert_eq!(c.effective_onchip_bytes() as f64, 131.625 * 1024.0);
        }
    }

    #[test]
    fn table1_pe_counts() {
        let pes: Vec<usize> = (1..=5)
            .map(|i| ArchConfig::implementation(i).pe_count())
            .collect();
        assert_eq!(pes, vec![256, 512, 1024, 1024, 2048]);
    }

    #[test]
    fn table1_psum_capacity_constant_within_memory_class() {
        // Implementations 1-3 all provide 64 KB of Psum storage.
        for i in 1..=3 {
            assert_eq!(
                ArchConfig::implementation(i).lreg_total_entries(),
                32768,
                "implementation {i}"
            );
        }
        for i in 4..=5 {
            assert_eq!(ArchConfig::implementation(i).lreg_total_entries(), 65536);
        }
    }

    #[test]
    fn all_implementations_validate() {
        for i in 1..=5 {
            ArchConfig::implementation(i).validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "implementations 1-5")]
    fn implementation_0_panics() {
        let _ = ArchConfig::implementation(0);
    }

    #[test]
    fn invalid_group_rejected() {
        let mut c = ArchConfig::example();
        c.group_rows = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn caps_reject_extreme_fields_without_panicking() {
        // Each case sets one field to an extreme value; validate must name
        // the violated cap rather than overflow computing derived sizes.
        let base = ArchConfig::example();
        let cases: Vec<(ArchConfig, &str)> = vec![
            (
                ArchConfig {
                    pe_rows: usize::MAX,
                    pe_cols: usize::MAX,
                    ..base
                },
                "cap",
            ),
            (
                ArchConfig {
                    lreg_entries_per_pe: usize::MAX,
                    ..base
                },
                "cap",
            ),
            (
                ArchConfig {
                    igbuf_entries: usize::MAX,
                    ..base
                },
                "cap",
            ),
            (
                ArchConfig {
                    greg_bytes: usize::MAX,
                    ..base
                },
                "cap",
            ),
            (
                ArchConfig {
                    greg_segment_entries: 0,
                    ..base
                },
                "non-empty",
            ),
            (
                ArchConfig {
                    core_freq_hz: f64::NAN,
                    ..base
                },
                "frequency",
            ),
            (
                ArchConfig {
                    core_freq_hz: f64::INFINITY,
                    ..base
                },
                "frequency",
            ),
            (
                ArchConfig {
                    dram: DramConfig {
                        bandwidth_bytes_per_s: 0.0,
                        latency_cycles: 100,
                    },
                    ..base
                },
                "bandwidth",
            ),
            (
                ArchConfig {
                    dram: DramConfig {
                        bandwidth_bytes_per_s: f64::NAN,
                        latency_cycles: 100,
                    },
                    ..base
                },
                "bandwidth",
            ),
            (
                ArchConfig {
                    dram: DramConfig {
                        bandwidth_bytes_per_s: 6.4e9,
                        latency_cycles: u64::MAX,
                    },
                    ..base
                },
                "latency",
            ),
        ];
        for (arch, needle) in cases {
            let msg = arch.validate().unwrap_err();
            assert!(msg.contains(needle), "{msg}");
        }
    }

    #[test]
    fn derived_effective_memory_cap() {
        // Each field individually passes its cap, but the derived effective
        // memory (4096² PEs × 2¹⁶ entries × 2 B = 2 TiB) blows the 1 GiB
        // derived cap — the exact hostile shape that would explode the
        // planner's feasibility region.
        let arch = ArchConfig {
            pe_rows: 4096,
            pe_cols: 4096,
            group_rows: 4,
            group_cols: 4,
            lreg_entries_per_pe: 1 << 16,
            ..ArchConfig::example()
        };
        let msg = arch.validate().unwrap_err();
        assert!(msg.contains("effective on-chip memory"), "{msg}");
    }

    #[test]
    fn dram_words_per_cycle() {
        let c = ArchConfig::example();
        // 6.4 GB/s at 500 MHz = 12.8 B/cycle = 6.4 words/cycle.
        assert!((c.dram_words_per_cycle() - 6.4).abs() < 1e-12);
    }
}
