//! Warm-window replay cache: record one interpreted execution, replay it
//! as a straight-line native pass.
//!
//! The paper's workloads are thousands of *identical* warm windows per
//! kernel: the program, the geometry and the control/addressing SRF
//! parameters do not change from window to window — only the data in the
//! SPM does.  Interpreting the same instruction schedule again and again
//! is therefore pure host overhead.  This module removes it:
//!
//! * The **first** execution of a stored kernel runs through the normal
//!   interpreter with a [`TraceRecorder`] attached.  The recorder captures
//!   the *resolved* per-cycle schedule — every ALU operation with its
//!   operand locations already multiplexed (VWR word indices folded with
//!   the MXCU index, SPM line/word addresses resolved), the final cycle
//!   count, the activity-counter delta and the end-of-run control state.
//! * Every **subsequent** warm window whose replay key still matches skips
//!   decode and control-flow interpretation entirely: the recorded
//!   schedule is replayed as a straight-line pass over the live SPM/VWR/
//!   SRF data path ([`ReplayOp`]), and the recorded cycles and counters
//!   are credited verbatim.
//!
//! # Correctness model
//!
//! A trace bakes in *control flow and addressing* but never *data*: ALU
//! results, SPM/VWR/SRF contents all flow through the live architectural
//! state at replay time, so replayed outputs are bit-identical to
//! interpretation even though every window carries different samples.
//! Baking the schedule is sound only if control flow and addressing are a
//! pure function of the *trace key* — the stored program plus the guarded
//! SRF values.  The recorder enforces that by tracking, per column, which
//! SRF entries the execution has written and whether each written value is
//! *tainted* (derived from data):
//!
//! * **Pristine entries are guarded**: every SRF entry consumed for control
//!   or addressing (an LSU address, a loop bound, an MXCU index load) while
//!   still unwritten by the execution becomes a guard `(column, index,
//!   value)`.  A trace replays only if every guard still matches the live
//!   SRF at launch; a host parameter write that changes a guarded entry
//!   simply misses the cache and re-records.
//! * **Pure writes need nothing**: a `StoreIdxSrf` (the MXCU index is
//!   schedule-determined; it replays as [`ReplayOp::WriteSrfConst`]) and an
//!   `AddSrf` of an untainted entry write values that are functions of the
//!   key, so later control or addressing reads of them add no guard and do
//!   not poison.  An `AddSrf` of a still-pristine entry guards that entry,
//!   which is what makes a pointer bump — the FFT stage's output pointer —
//!   pure.
//! * **Tainted writes poison**: values loaded from the SPM (`LoadSrf`) or
//!   written by an RC (`RcDst::Srf`) are data, as is an `AddSrf` of such a
//!   value.  If control or addressing consumes a tainted entry, the trace
//!   is poisoned and discarded — such launches always fall back to
//!   interpretation.  A pure write over a tainted entry clears the taint.
//!
//! # Compact encoding
//!
//! Warm traces stay resident for as long as their kernel does, so the op
//! encoding is narrow: RC, register, VWR and SRF indices are `u8`, VWR
//! word indices `u16`, SPM addresses and segment lengths `u32`, which
//! keeps a [`ReplayOp`] at 24 bytes and a [`ReplaySegment`] at 8.  The
//! recorder does the narrowing; an index that does not fit poisons the
//! recording rather than being truncated, and the replay executor widens
//! the indices back.
//!
//! Traces hang off the configuration-memory slot that owns the kernel
//! ([`crate::config_mem::ConfigMemory`]), so the generational store/
//! remove/clear invalidation the slot map already performs applies to
//! traces (and cached decoded programs) for free.
//!
//! The opt-out knob is [`crate::Vwr2a::set_replay_enabled`]; conformance
//! tests flip it to compare replayed and interpreted executions
//! bit-for-bit.

use crate::isa::lcu::LCU_REGISTERS;
use crate::isa::lsu::ShuffleOp;
use crate::isa::rc::RcOpcode;
use crate::trace::ActivityCounters;
use std::sync::Arc;

/// Maximum SRF entries a recorder can track per column (one bit each).
/// Geometries beyond this poison the trace instead of recording.
const MAX_TRACKED_SRF: usize = 64;

/// A resolved operand source of a replayed RC operation.  All multiplexing
/// (MXCU index, slice offsets, neighbour selection) happened at record
/// time; values are read from the live state at replay time.
///
/// Indices are stored narrow (see the module docs on the compact
/// encoding); the replay executor widens them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplaySrc {
    /// An immediate (or the hard-wired zero input).
    Const(i32),
    /// An RC-local register.
    Reg {
        /// RC index within the column.
        rc: u8,
        /// Register index within the RC.
        reg: u8,
    },
    /// A VWR word, index fully resolved.
    VwrWord {
        /// VWR index.
        vwr: u8,
        /// Word index within the VWR.
        word: u16,
    },
    /// An SRF entry (data read — not a guard).
    Srf(u8),
    /// The previous-cycle result latch of an RC (self or neighbour,
    /// already resolved to an absolute RC index).
    Prev(u8),
}

/// A resolved destination of a replayed RC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDst {
    /// Result discarded (only the previous-result latch updates).
    None,
    /// An RC-local register.
    Reg {
        /// RC index within the column.
        rc: u8,
        /// Register index within the RC.
        reg: u8,
    },
    /// A VWR word, index fully resolved.
    VwrWord {
        /// VWR index.
        vwr: u8,
        /// Word index within the VWR.
        word: u16,
    },
    /// An SRF entry.
    Srf(u8),
}

/// One resolved operation of a recorded schedule.  Addresses and indices
/// are baked; data flows through the live architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// An RC ALU operation with resolved operands.
    Rc {
        /// RC index within the column (for the previous-result latch).
        rc: u8,
        /// The ALU opcode.
        op: RcOpcode,
        /// Resolved first operand.
        a: ReplaySrc,
        /// Resolved second operand.
        b: ReplaySrc,
        /// Resolved destination.
        dst: ReplayDst,
    },
    /// LSU: fill a VWR from an SPM line (commits at segment end).
    LoadVwrLine {
        /// Destination VWR index.
        vwr: u8,
        /// Resolved SPM line address.
        line: u32,
    },
    /// LSU: store a VWR to an SPM line (immediate, mid-segment).
    StoreVwrLine {
        /// Source VWR index.
        vwr: u8,
        /// Resolved SPM line address.
        line: u32,
    },
    /// LSU: load an SPM word into an SRF entry (commits at segment end).
    LoadSrfWord {
        /// Destination SRF entry.
        srf: u8,
        /// Resolved SPM word address.
        word: u32,
    },
    /// LSU: store an SRF entry to an SPM word (immediate, mid-segment).
    StoreSrfWord {
        /// Source SRF entry.
        srf: u8,
        /// Resolved SPM word address.
        word: u32,
    },
    /// LSU: add an immediate to an SRF entry (commits at segment end).
    AddSrf {
        /// SRF entry.
        srf: u8,
        /// Immediate addend.
        imm: i32,
    },
    /// LSU: run the shuffle unit over VWRs A and B into C.
    Shuffle {
        /// The shuffle operation.
        op: ShuffleOp,
    },
    /// Write a constant into an SRF entry (a `StoreIdxSrf` whose index
    /// value was resolved at record time; commits at segment end).
    WriteSrfConst {
        /// Destination SRF entry.
        srf: u8,
        /// The resolved value.
        value: i32,
    },
}

/// One guard of a trace: the SRF entry `(column, index)` must still hold
/// `value` for the trace to replay (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfGuard {
    /// Column owning the SRF.
    pub column: usize,
    /// SRF entry index.
    pub index: usize,
    /// Value observed (and baked into the schedule) at record time.
    pub value: i32,
}

/// One segment of a trace: `len` consecutive ops of [`ReplayTrace::ops`]
/// executed on `column` with the interpreter's two-phase cycle semantics
/// (reads see segment-start state, writes commit at segment end; SPM
/// accesses are immediate, as in [`crate::column::Column::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySegment {
    /// Column the segment executes on.
    pub column: u16,
    /// Number of ops in the segment.
    pub len: u32,
}

/// End-of-run control state of one column, restored verbatim after a
/// replay so the architectural state matches interpretation exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnFinish {
    /// Final program counter (the row that executed `EXIT`).
    pub pc: usize,
    /// Final MXCU index.
    pub mxcu_idx: usize,
    /// Final LCU register file.
    pub lcu_regs: [i32; LCU_REGISTERS],
}

/// A recorded execution of one stored kernel under one SRF-parameter
/// snapshot: the resolved straight-line schedule plus everything needed to
/// credit the run without interpreting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayTrace {
    /// Kernel name (for the replayed [`crate::stats::RunStats`]).
    pub name: Arc<str>,
    /// Columns the kernel uses.
    pub columns_used: usize,
    /// Execution cycles (excluding any configuration-word streaming).
    pub exec_cycles: u64,
    /// Activity-counter delta of the execution (excluding configuration
    /// streaming), credited verbatim on replay.
    pub counters: ActivityCounters,
    /// SRF guards that must hold for the trace to replay.
    pub guards: Vec<SrfGuard>,
    /// The per-(cycle, column) segments, in interpreter execution order.
    pub segments: Vec<ReplaySegment>,
    /// The flattened resolved ops, indexed by the segments.
    pub ops: Vec<ReplayOp>,
    /// Final control state per used column.
    pub finish: Vec<ColumnFinish>,
}

impl ReplayTrace {
    /// Approximate host-memory footprint indicator: the number of resolved
    /// ops in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for a trace with no ops (a kernel that only exits).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Records one interpreted execution into a [`ReplayTrace`].
///
/// The recorder is driven by the interpreter: the array begins a segment
/// per (cycle, column), the column pushes resolved ops and guard
/// observations as it executes, and the commit phase reports each SRF
/// write with its taint, so later guard observations of a tainted entry
/// poison the trace (see the module docs).  [`TraceRecorder::finish`]
/// yields the trace, or `None` if the execution turned out to be
/// non-replayable.
#[derive(Debug)]
pub struct TraceRecorder {
    poisoned: bool,
    guards: Vec<SrfGuard>,
    /// Per-column bitmask of SRF entries written so far by the execution
    /// (an unwritten entry is *pristine*).
    written: Vec<u64>,
    /// Per-column bitmask of written SRF entries whose current value came
    /// from data (SPM or an RC result), not from the trace key.
    tainted: Vec<u64>,
    segments: Vec<ReplaySegment>,
    ops: Vec<ReplayOp>,
    /// Column of the currently open segment.
    cur_column: usize,
    /// Op index where the currently open segment began.
    seg_start: usize,
    /// `true` while a segment is open.
    seg_open: bool,
}

impl TraceRecorder {
    /// Creates a recorder for a kernel using `columns_used` columns.
    pub fn new(columns_used: usize) -> Self {
        Self {
            poisoned: false,
            guards: Vec::new(),
            written: vec![0; columns_used],
            tainted: vec![0; columns_used],
            segments: Vec::new(),
            ops: Vec::new(),
            cur_column: 0,
            seg_start: 0,
            seg_open: false,
        }
    }

    /// `true` once the execution proved non-replayable.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Narrows an index for the compact op encoding.  An index that does
    /// not fit poisons the recording (the launch keeps interpreting)
    /// rather than being truncated into a wrong address.
    pub(crate) fn narrow<T: TryFrom<usize> + Default>(&mut self, value: usize) -> T {
        T::try_from(value).unwrap_or_else(|_| {
            self.poisoned = true;
            T::default()
        })
    }

    fn close_segment(&mut self) {
        if self.seg_open && self.ops.len() > self.seg_start {
            let column = self.narrow(self.cur_column);
            let len = self.narrow(self.ops.len() - self.seg_start);
            self.segments.push(ReplaySegment { column, len });
        }
        self.seg_open = false;
    }

    /// Opens the segment for one column-step (closing the previous one).
    /// Segments that record no ops are dropped — they have no
    /// architectural effect to replay.
    pub(crate) fn begin_segment(&mut self, column: usize) {
        self.close_segment();
        self.cur_column = column;
        self.seg_start = self.ops.len();
        self.seg_open = true;
    }

    /// Appends a resolved op to the open segment.
    pub(crate) fn push_op(&mut self, op: ReplayOp) {
        if !self.poisoned {
            self.ops.push(op);
        }
    }

    /// The tracking bit of SRF entry `index`, or `None` (after poisoning)
    /// for an entry beyond [`MAX_TRACKED_SRF`].
    fn srf_bit(&mut self, index: usize) -> Option<u64> {
        if index >= MAX_TRACKED_SRF {
            self.poisoned = true;
            return None;
        }
        Some(1u64 << index)
    }

    /// Observes an SRF entry consumed for control or addressing in the
    /// current column.  Pristine entries become guards, entries holding a
    /// pure (key-determined) value need nothing, and tainted entries
    /// poison the trace.
    pub(crate) fn guard_srf(&mut self, index: usize, value: i32) {
        if self.poisoned {
            return;
        }
        let column = self.cur_column;
        let Some(bit) = self.srf_bit(index) else {
            return;
        };
        if self.tainted[column] & bit != 0 {
            self.poisoned = true;
            return;
        }
        if self.written[column] & bit != 0 {
            return;
        }
        if !self
            .guards
            .iter()
            .any(|g| g.column == column && g.index == index)
        {
            self.guards.push(SrfGuard {
                column,
                index,
                value,
            });
        }
    }

    /// Observes the source entry of an `AddSrf` (holding `value`) in the
    /// current column and returns whether the sum is tainted.  A pristine
    /// source is guarded, so the sum is a pure function of the trace key.
    pub(crate) fn add_srf(&mut self, index: usize, value: i32) -> bool {
        if self
            .srf_bit(index)
            .is_some_and(|bit| self.tainted[self.cur_column] & bit != 0)
        {
            return true;
        }
        self.guard_srf(index, value);
        false
    }

    /// Reports an SRF entry the current column's commit phase wrote this
    /// cycle (kernel-side writes only — host parameter writes happen
    /// between executions and are covered by the guard check instead).
    /// `tainted` marks a value derived from data (an SPM load or an RC
    /// result); a pure write clears the entry's taint.
    pub(crate) fn note_srf_write(&mut self, index: usize, tainted: bool) {
        let Some(bit) = self.srf_bit(index) else {
            return;
        };
        let column = self.cur_column;
        self.written[column] |= bit;
        if tainted {
            self.tainted[column] |= bit;
        } else {
            self.tainted[column] &= !bit;
        }
    }

    /// Seals the recording into a trace, or `None` if it was poisoned.
    ///
    /// `exec_cycles` and `counters` are the execution-only cycle count and
    /// counter delta (configuration streaming excluded); `finish` is the
    /// end-of-run control state of each used column.
    pub fn finish(
        mut self,
        name: Arc<str>,
        exec_cycles: u64,
        counters: ActivityCounters,
        finish: Vec<ColumnFinish>,
    ) -> Option<ReplayTrace> {
        self.close_segment();
        if self.poisoned {
            return None;
        }
        let columns_used = self.written.len();
        Some(ReplayTrace {
            name,
            columns_used,
            exec_cycles,
            counters,
            guards: self.guards,
            segments: self.segments,
            ops: self.ops,
            finish,
        })
    }
}

/// Reusable scratch buffers of the replay executor: the pending write sets
/// of one segment's two-phase commit.  Owned by [`crate::Vwr2a`] so a warm
/// replayed window performs no per-window heap allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplayScratch {
    /// Pending RC register writes `(rc, reg, value)`.
    pub rc_reg: Vec<(usize, usize, i32)>,
    /// Pending VWR word writes `(vwr, word, value)`.
    pub vwr_word: Vec<(usize, usize, i32)>,
    /// Pending whole-VWR line write (at most one per segment: `LoadVwr`
    /// and `Shuffle` share the single LSU slot).
    pub line_target: Option<usize>,
    /// The pending line data for `line_target`.
    pub line_buf: Vec<i32>,
    /// Pending SRF writes `(index, value)`.
    pub srf: Vec<(usize, i32)>,
    /// Pending previous-result latch updates `(rc, value)`.
    pub prev: Vec<(usize, i32)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ColumnProgramBuilder;
    use crate::column::Column;
    use crate::geometry::{Geometry, VwrId};
    use crate::isa::lsu::{LsuAddr, LsuInstr};
    use crate::isa::mxcu::MxcuInstr;
    use crate::isa::rc::{RcDst, RcInstr, RcSrc};
    use crate::program::Row;
    use crate::spm::Spm;

    fn finish(rec: TraceRecorder) -> Option<ReplayTrace> {
        rec.finish("k".into(), 1, ActivityCounters::new(), Vec::new())
    }

    /// Records one single-column execution of `rows` (an `EXIT` row is
    /// appended) with SRF[6] = 4 and SRF[7] = 6 written by the host.
    fn record(rows: &[Row]) -> Option<ReplayTrace> {
        let g = Geometry::paper();
        let mut b = ColumnProgramBuilder::new(g.rcs_per_column);
        for row in rows {
            b.push(row.clone());
        }
        b.push_exit();
        let program = b.build().unwrap();
        let mut column = Column::new(g);
        column.srf_mut().write(6, 4).unwrap();
        column.srf_mut().write(7, 6).unwrap();
        let mut spm = Spm::new(g.spm_words(), g.vwr_words);
        let mut counters = ActivityCounters::new();
        let mut rec = TraceRecorder::new(1);
        let mut cycle = 0;
        loop {
            cycle += 1;
            rec.begin_segment(0);
            let running = column
                .step_traced(&program, &mut spm, &mut counters, cycle, Some(&mut rec))
                .unwrap();
            if !running {
                break;
            }
        }
        finish(rec)
    }

    fn row() -> Row {
        Row::new(Geometry::paper().rcs_per_column)
    }

    fn store_c(srf: u8) -> Row {
        row().lsu(LsuInstr::StoreVwr {
            vwr: VwrId::C,
            line: LsuAddr::Srf(srf),
        })
    }

    fn load_a(srf: u8) -> Row {
        row().lsu(LsuInstr::LoadVwr {
            vwr: VwrId::A,
            line: LsuAddr::Srf(srf),
        })
    }

    fn add_srf(srf: u8, imm: i16) -> Row {
        row().lsu(LsuInstr::AddSrf { srf, imm })
    }

    #[test]
    fn add_srf_chain_on_a_pristine_entry_guards_the_base_and_stays_pure() {
        let trace = record(&[
            store_c(7),
            add_srf(7, 1),
            store_c(7),
            add_srf(7, 1),
            store_c(7),
        ])
        .expect("a pointer bump of a guarded entry replays");
        assert_eq!(
            trace.guards,
            vec![SrfGuard {
                column: 0,
                index: 7,
                value: 6,
            }]
        );
        let lines: Vec<u32> = trace
            .ops
            .iter()
            .filter_map(|op| match *op {
                ReplayOp::StoreVwrLine { line, .. } => Some(line),
                _ => None,
            })
            .collect();
        assert_eq!(lines, [6, 7, 8]);
    }

    #[test]
    fn add_srf_guards_its_pristine_base_even_before_any_address_use() {
        let trace = record(&[add_srf(6, 2), store_c(6)]).expect("pure");
        assert_eq!(trace.guards.len(), 1);
        assert_eq!((trace.guards[0].index, trace.guards[0].value), (6, 4));
    }

    #[test]
    fn data_loaded_srf_entries_poison_address_use() {
        let load = row().lsu(LsuInstr::LoadSrf {
            srf: 6,
            word: LsuAddr::Imm(0),
        });
        assert!(record(&[load.clone(), load_a(6)]).is_none());
        // A bump of a tainted entry stays tainted.
        assert!(record(&[load.clone(), add_srf(6, 1), load_a(6)]).is_none());
        // A tainted entry used only as data does not poison.
        assert!(record(&[load]).is_some());
    }

    #[test]
    fn rc_results_written_to_the_srf_poison_address_use() {
        let rc = row().rc(0, RcInstr::mov(RcDst::Srf(7), RcSrc::Imm(1)));
        assert!(record(&[rc, store_c(7)]).is_none());
    }

    #[test]
    fn store_idx_srf_is_a_pure_write() {
        let trace = record(&[
            row().mxcu(MxcuInstr::SetIdx(3)),
            row().mxcu(MxcuInstr::StoreIdxSrf(6)),
            load_a(6),
        ])
        .expect("a schedule-determined SRF value replays");
        assert!(trace.guards.is_empty(), "a pure entry needs no guard");
        assert!(trace
            .ops
            .contains(&ReplayOp::WriteSrfConst { srf: 6, value: 3 }));
        // A pure write also clears an earlier taint.
        let rc = row().rc(0, RcInstr::mov(RcDst::Srf(6), RcSrc::Imm(1)));
        let trace = record(&[rc, row().mxcu(MxcuInstr::StoreIdxSrf(6)), load_a(6)]);
        assert!(trace.is_some());
    }

    #[test]
    fn tainted_writes_poison_the_next_guard() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.guard_srf(2, 7);
        assert!(!rec.poisoned());
        rec.note_srf_write(3, true);
        rec.guard_srf(3, 9);
        assert!(rec.poisoned());
        assert!(finish(rec).is_none());
    }

    #[test]
    fn guard_reads_of_pure_entries_add_no_guard() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.note_srf_write(3, false);
        rec.guard_srf(3, 9);
        assert!(!rec.add_srf(3, 9), "a bump of a pure entry is pure");
        let trace = finish(rec).expect("not poisoned");
        assert!(trace.guards.is_empty());
    }

    #[test]
    fn oversized_indices_poison_instead_of_truncating() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        let word: u16 = rec.narrow(u16::MAX as usize);
        assert_eq!(word, u16::MAX);
        assert!(!rec.poisoned());
        let vwr: u8 = rec.narrow(256);
        assert_eq!(vwr, 0);
        assert!(rec.poisoned());
        assert!(finish(rec).is_none());
        // Entries beyond the tracked range poison too.
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.note_srf_write(MAX_TRACKED_SRF, false);
        assert!(rec.poisoned());
    }

    #[test]
    fn replay_encoding_stays_compact() {
        assert!(std::mem::size_of::<ReplayOp>() <= 24);
        assert!(std::mem::size_of::<ReplaySegment>() <= 8);
    }

    #[test]
    fn guards_deduplicate_per_column() {
        let mut rec = TraceRecorder::new(2);
        rec.begin_segment(0);
        rec.guard_srf(1, 5);
        rec.guard_srf(1, 5);
        rec.begin_segment(1);
        rec.guard_srf(1, 6);
        let trace = finish(rec).expect("not poisoned");
        assert_eq!(trace.guards.len(), 2);
        assert_eq!(trace.guards[0].column, 0);
        assert_eq!(trace.guards[1].column, 1);
        assert!(trace.is_empty());
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut rec = TraceRecorder::new(1);
        rec.begin_segment(0);
        rec.begin_segment(0);
        rec.push_op(ReplayOp::Shuffle {
            op: ShuffleOp::EvenPrune,
        });
        rec.begin_segment(0);
        let trace = finish(rec).expect("not poisoned");
        assert_eq!(trace.segments.len(), 1);
        assert_eq!(trace.segments[0].len, 1);
        assert_eq!(trace.len(), 1);
    }
}
