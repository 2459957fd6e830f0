//! [`RunReport`] ⇄ JSON, lossless and byte-deterministic.
//!
//! `CycleCounter` keeps its fields private, so cycles serialize by
//! category through the public [`CycleCategory`] accessors and rebuild
//! through `charge()`. `switch_shapes` is a `BTreeMap`, so its
//! iteration order — and therefore the serialized form — is already
//! deterministic; nothing in a report goes through a `HashMap`.
//!
//! One encoding, one decoding, neither through a [`crate::json::Value`]
//! tree. Encoding writes the text directly. Decoding pulls the fields
//! back with [`crate::json`]'s forward-only reader in the order the
//! encoder wrote them, so a report that is valid JSON but not in that
//! canonical field order, or that carries a field the encoder never
//! writes, is a [`DecodeError`]. A report is serialized at most once per
//! job: the cache and the journal store those exact bytes, and a cache
//! hit hands its verified bytes to a daemon's `records` frame unchanged.
//!
//! [`write_records_frame`] and [`records_frame_from_json`] are the same
//! pair for a daemon's `records` frame: its type, a matrix's run records
//! (each a report plus its cell, the text [`records_to_json`] writes),
//! the sweep summary and the quarantine list. The client pulls all four
//! in one pass over the frame's line, in the order they were written.

use crate::engine::{QuarantineRecord, SweepSummary};
use crate::json::{obj, write_f64, write_string, write_u64, ParseError, Reader, Value};
use regwin_core::{Behavior, Concurrency, Granularity, RunRecord};
use regwin_machine::{
    CycleCategory, CycleCounter, MachineStats, SchemeKind, SwitchShape, ThreadStats,
};
use regwin_rt::{BusSummary, RunReport, SchedulingPolicy, ThreadReport};

/// A deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot decode report: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> Self {
        DecodeError(e.to_string())
    }
}

impl From<DecodeError> for regwin_rt::RtError {
    fn from(e: DecodeError) -> Self {
        regwin_rt::RtError::CorruptTrace { detail: e.to_string() }
    }
}

fn category_name(c: CycleCategory) -> &'static str {
    match c {
        CycleCategory::App => "app",
        CycleCategory::WindowInstr => "window_instr",
        CycleCategory::OverflowTrap => "overflow_trap",
        CycleCategory::UnderflowTrap => "underflow_trap",
        CycleCategory::ContextSwitch => "context_switch",
        CycleCategory::BusStall => "bus_stall",
        CycleCategory::HazardStall => "hazard_stall",
    }
}

/// Serializes a report to compact JSON, written straight into the text
/// with no intermediate [`crate::json::Value`] tree. These bytes are
/// what the cache and the journal checksum, so the field order is fixed.
pub fn report_to_json(report: &RunReport) -> String {
    let mut out = String::with_capacity(2048);
    write_report(report, &mut out);
    out
}

fn write_report(report: &RunReport, out: &mut String) {
    out.push('{');
    str_field(out, "scheme", report.scheme.name());
    str_field(out, "policy", report.policy.name());
    int_field(out, "nwindows", report.nwindows as u64);
    field(out, "cycles");
    out.push('{');
    for c in CycleCategory::ALL {
        int_field(out, category_name(c), report.cycles.category(c));
    }
    out.push('}');
    let stats = &report.stats;
    field(out, "stats");
    out.push('{');
    int_field(out, "saves_executed", stats.saves_executed);
    int_field(out, "restores_executed", stats.restores_executed);
    int_field(out, "overflow_traps", stats.overflow_traps);
    int_field(out, "underflow_traps", stats.underflow_traps);
    int_field(out, "overflow_spills", stats.overflow_spills);
    int_field(out, "underflow_restores", stats.underflow_restores);
    int_field(out, "context_switches", stats.context_switches);
    int_field(out, "switch_saves", stats.switch_saves);
    int_field(out, "switch_restores", stats.switch_restores);
    field(out, "switch_shapes");
    array(out, &stats.switch_shapes, |out, (shape, &count)| {
        out.push('{');
        int_field(out, "saves", u64::from(shape.saves));
        int_field(out, "restores", u64::from(shape.restores));
        int_field(out, "count", count);
        out.push('}');
    });
    field(out, "threads");
    array(out, &stats.threads, |out, t| {
        out.push('{');
        int_field(out, "switches_out", t.switches_out);
        int_field(out, "saves", t.saves);
        int_field(out, "restores", t.restores);
        out.push('}');
    });
    out.push('}');
    field(out, "threads");
    array(out, &report.threads, |out, t| {
        out.push('{');
        str_field(out, "name", &t.name);
        int_field(out, "context_switches", t.context_switches);
        int_field(out, "saves", t.saves);
        int_field(out, "restores", t.restores);
        int_field(out, "blocked_on_read", t.blocked_on_read);
        int_field(out, "blocked_on_write", t.blocked_on_write);
        field(out, "quarantined");
        out.push_str(if t.quarantined { "true" } else { "false" });
        out.push('}');
    });
    field(out, "avg_parallel_slackness");
    write_f64(report.avg_parallel_slackness, out);
    // The bus section exists only for multi-PE cluster reports, so a
    // legacy report's serialized form is unchanged byte-for-byte.
    if let Some(bus) = &report.bus {
        field(out, "bus");
        out.push('{');
        int_field(out, "pes", bus.pes as u64);
        int_field(out, "grants", bus.grants);
        int_field(out, "messages", bus.messages);
        int_field(out, "stall_cycles", bus.stall_cycles);
        int_field(out, "makespan_cycles", bus.makespan_cycles);
        field(out, "per_pe_cycles");
        array(out, &bus.per_pe_cycles, |out, &c| write_u64(c, out));
        field(out, "per_pe_stalls");
        array(out, &bus.per_pe_stalls, |out, &c| write_u64(c, out));
        out.push('}');
    }
    out.push('}');
}

/// Serializes run records (without any timing data) to deterministic
/// JSON: the same matrix produces byte-identical output no matter the
/// worker count or cache state. The one encoder of the per-record
/// shape; the daemon's `records` frame embeds its output.
pub fn records_to_json(records: &[RunRecord]) -> String {
    let mut out = String::with_capacity(2048 * records.len() + 2);
    write_records(&mut out, records.iter().map(|r| (r, None)));
    out
}

/// Appends the text [`records_to_json`] writes for `records` to `out`,
/// each report as the given text of its [`report_to_json`] encoding
/// where there is one, and encoded here where there is not.
pub(crate) fn write_records<'a>(
    out: &mut String,
    records: impl IntoIterator<Item = (&'a RunRecord, Option<&'a str>)>,
) {
    array(out, records, |out, (r, report_json)| {
        out.push('{');
        str_field(out, "behavior", &r.behavior.to_string());
        str_field(out, "scheme", r.scheme.name());
        str_field(out, "policy", r.policy.name());
        int_field(out, "nwindows", r.nwindows as u64);
        field(out, "report");
        match report_json {
            Some(text) => out.push_str(text),
            None => write_report(&r.report, out),
        }
        out.push('}');
    });
}

/// A daemon's reply to a sweep that finished: what a `records` frame
/// carries.
#[derive(Debug, Clone)]
pub struct RecordsFrame {
    /// The run records, in the matrix's cell order.
    pub records: Vec<RunRecord>,
    /// The session engine's summary after the sweep.
    pub summary: SweepSummary,
    /// The session engine's quarantine list after the sweep.
    pub quarantine: Vec<QuarantineRecord>,
}

/// Appends a `records` frame, without its newline, to `out`: the type,
/// the records text `records` appends (what [`records_to_json`] writes),
/// then the summary and quarantine list it returns. The one encoder of
/// the frame, which [`records_frame_from_json`] decodes; an error from
/// `records` leaves a partial frame in `out`.
///
/// # Errors
///
/// Passes on the error of `records`.
pub fn write_records_frame<E>(
    out: &mut String,
    records: impl FnOnce(&mut String) -> Result<(SweepSummary, Vec<QuarantineRecord>), E>,
) -> Result<(), E> {
    out.push_str("{\"type\":\"records\",\"records\":");
    let (summary, quarantine) = records(out)?;
    field(out, "summary");
    out.push('{');
    int_field(out, "jobs", summary.jobs as u64);
    int_field(out, "cache_hits", summary.cache_hits as u64);
    int_field(out, "cache_misses", summary.cache_misses as u64);
    int_field(out, "quarantined", summary.quarantined as u64);
    out.push('}');
    field(out, "quarantine");
    out.push_str(&quarantine_to_value(&quarantine).to_json());
    out.push('}');
    Ok(())
}

/// Decodes a `records` frame in one pass, pulling its members in the
/// order [`write_records_frame`] writes them, as [`report_from_json`]
/// pulls a report's.
///
/// `Ok(None)` means another frame: the text is not an object whose first
/// member is `"type":"records"`.
///
/// # Errors
///
/// Fails on a `records` frame that is malformed, nested deeper than
/// [`crate::json::MAX_DEPTH`], out of canonical member order, or that
/// carries a member the encoder never writes.
pub fn records_frame_from_json(text: &str) -> Result<Option<RecordsFrame>, DecodeError> {
    let mut r = Reader::new(text);
    let kind = r.begin_object().and_then(|()| r.key("type")).and_then(|()| r.str());
    if kind.ok().as_deref() != Some("records") {
        return Ok(None);
    }
    r.key("records")?;
    let records = read_records(&mut r)?;
    r.key("summary")?;
    r.begin_object()?;
    let [mut jobs, mut hits, mut misses, mut quarantined] = [0; 4];
    read_u64s(
        &mut r,
        [
            ("jobs", &mut jobs),
            ("cache_hits", &mut hits),
            ("cache_misses", &mut misses),
            ("quarantined", &mut quarantined),
        ],
    )?;
    r.end_object()?;
    r.key("quarantine")?;
    let quarantine = read_quarantine_list(&mut r)?;
    r.end_object()?;
    r.finish()?;
    let [jobs, cache_hits, cache_misses, quarantined] =
        [jobs, hits, misses, quarantined].map(|n| n as usize);
    let summary = SweepSummary { jobs, cache_hits, cache_misses, quarantined };
    Ok(Some(RecordsFrame { records, summary, quarantine }))
}

/// Starts an object member: a separating comma unless the member opens
/// its object (no complete JSON value ends in `{`), then the key.
fn field(out: &mut String, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    write_string(key, out);
    out.push(':');
}

fn int_field(out: &mut String, key: &str, n: u64) {
    field(out, key);
    write_u64(n, out);
}

fn str_field(out: &mut String, key: &str, s: &str) {
    field(out, key);
    write_string(s, out);
}

/// Writes `items` as a JSON array, each element by `item`.
fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Parses a scheme from its name, e.g. `"SP"`.
///
/// # Errors
///
/// Fails on an unknown scheme name.
pub fn scheme_from_name(name: &str) -> Result<SchemeKind, DecodeError> {
    SchemeKind::ALL
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| DecodeError(format!("unknown scheme '{name}'")))
}

fn policy_from_name(name: &str) -> Result<SchedulingPolicy, DecodeError> {
    SchedulingPolicy::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| DecodeError(format!("unknown policy '{name}'")))
}

/// Parses a behaviour from its `Display` form, e.g. `"high/fine"`.
///
/// # Errors
///
/// Fails on an unknown concurrency or granularity name.
pub fn behavior_from_name(name: &str) -> Result<Behavior, DecodeError> {
    let (conc, gran) = name
        .split_once('/')
        .ok_or_else(|| DecodeError(format!("behavior '{name}' is not 'conc/gran'")))?;
    let concurrency = Concurrency::ALL
        .into_iter()
        .find(|c| c.to_string() == conc)
        .ok_or_else(|| DecodeError(format!("unknown concurrency '{conc}'")))?;
    let granularity = Granularity::ALL
        .into_iter()
        .find(|g| g.to_string() == gran)
        .ok_or_else(|| DecodeError(format!("unknown granularity '{gran}'")))?;
    Ok(Behavior::new(concurrency, granularity))
}

/// Reads the `u64` members `fields` names, in that order, into them.
fn read_u64s<const N: usize>(
    r: &mut Reader<'_>,
    fields: [(&str, &mut u64); N],
) -> Result<(), ParseError> {
    for (name, field) in fields {
        r.key(name)?;
        *field = r.u64()?;
    }
    Ok(())
}

/// Reads an array of `u64`s.
fn read_u64_array(r: &mut Reader<'_>) -> Result<Vec<u64>, ParseError> {
    let mut items = Vec::new();
    r.array(|r| -> Result<(), ParseError> {
        items.push(r.u64()?);
        Ok(())
    })?;
    Ok(items)
}

/// Decodes one report from `r`, pulling its fields in the order
/// [`report_to_json`] writes them: no tree, no per-key allocation. A
/// report in any other field order, or with a field it never writes, is
/// an error.
pub(crate) fn read_report(r: &mut Reader<'_>) -> Result<RunReport, DecodeError> {
    r.begin_object()?;
    r.key("scheme")?;
    let scheme = scheme_from_name(&r.str()?)?;
    r.key("policy")?;
    let policy = policy_from_name(&r.str()?)?;
    r.key("nwindows")?;
    let nwindows = r.u64()? as usize;

    r.key("cycles")?;
    r.begin_object()?;
    let mut cycles = CycleCounter::new();
    for c in CycleCategory::ALL {
        r.key(category_name(c))?;
        cycles.charge(c, r.u64()?);
    }
    r.end_object()?;

    r.key("stats")?;
    r.begin_object()?;
    let mut stats = MachineStats::new();
    read_u64s(
        r,
        [
            ("saves_executed", &mut stats.saves_executed),
            ("restores_executed", &mut stats.restores_executed),
            ("overflow_traps", &mut stats.overflow_traps),
            ("underflow_traps", &mut stats.underflow_traps),
            ("overflow_spills", &mut stats.overflow_spills),
            ("underflow_restores", &mut stats.underflow_restores),
            ("context_switches", &mut stats.context_switches),
            ("switch_saves", &mut stats.switch_saves),
            ("switch_restores", &mut stats.switch_restores),
        ],
    )?;
    r.key("switch_shapes")?;
    r.array(|r| -> Result<(), ParseError> {
        let (mut saves, mut restores, mut count) = (0, 0, 0);
        r.begin_object()?;
        read_u64s(r, [("saves", &mut saves), ("restores", &mut restores), ("count", &mut count)])?;
        r.end_object()?;
        let shape = SwitchShape { saves: saves as u32, restores: restores as u32 };
        stats.switch_shapes.insert(shape, count);
        Ok(())
    })?;
    r.key("threads")?;
    r.array(|r| -> Result<(), ParseError> {
        let mut t = ThreadStats::default();
        r.begin_object()?;
        read_u64s(
            r,
            [
                ("switches_out", &mut t.switches_out),
                ("saves", &mut t.saves),
                ("restores", &mut t.restores),
            ],
        )?;
        r.end_object()?;
        stats.threads.push(t);
        Ok(())
    })?;
    r.end_object()?;

    r.key("threads")?;
    let mut threads = Vec::new();
    r.array(|r| -> Result<(), ParseError> {
        r.begin_object()?;
        r.key("name")?;
        let mut t = ThreadReport { name: r.str()?.into_owned(), ..ThreadReport::default() };
        read_u64s(
            r,
            [
                ("context_switches", &mut t.context_switches),
                ("saves", &mut t.saves),
                ("restores", &mut t.restores),
                ("blocked_on_read", &mut t.blocked_on_read),
                ("blocked_on_write", &mut t.blocked_on_write),
            ],
        )?;
        r.key("quarantined")?;
        t.quarantined = r.bool()?;
        r.end_object()?;
        threads.push(t);
        Ok(())
    })?;

    r.key("avg_parallel_slackness")?;
    let avg_parallel_slackness = r.f64()?;

    // Only multi-PE cluster reports carry the bus section.
    let bus = if r.has_member() {
        let mut bus = BusSummary::default();
        let mut pes = 0;
        r.key("bus")?;
        r.begin_object()?;
        read_u64s(
            r,
            [
                ("pes", &mut pes),
                ("grants", &mut bus.grants),
                ("messages", &mut bus.messages),
                ("stall_cycles", &mut bus.stall_cycles),
                ("makespan_cycles", &mut bus.makespan_cycles),
            ],
        )?;
        bus.pes = pes as usize;
        r.key("per_pe_cycles")?;
        bus.per_pe_cycles = read_u64_array(r)?;
        r.key("per_pe_stalls")?;
        bus.per_pe_stalls = read_u64_array(r)?;
        r.end_object()?;
        Some(bus)
    } else {
        None
    };
    r.end_object()?;

    Ok(RunReport { scheme, policy, nwindows, cycles, stats, threads, avg_parallel_slackness, bus })
}

/// Decodes the report in `text`, which must be in [`report_to_json`]'s
/// canonical field order (whitespace between tokens aside).
///
/// # Errors
///
/// Fails on malformed JSON, nesting deeper than
/// [`crate::json::MAX_DEPTH`], a missing, mistyped or unknown field,
/// and fields out of canonical order.
pub fn report_from_json(text: &str) -> Result<RunReport, DecodeError> {
    let mut r = Reader::new(text);
    let report = read_report(&mut r)?;
    r.finish()?;
    Ok(report)
}

/// Reads the run records [`records_to_json`] wrote, in its canonical
/// field order, like [`read_report`].
fn read_records(r: &mut Reader<'_>) -> Result<Vec<RunRecord>, DecodeError> {
    let mut records = Vec::new();
    r.array(|r| -> Result<(), DecodeError> {
        r.begin_object()?;
        r.key("behavior")?;
        let behavior = behavior_from_name(&r.str()?)?;
        r.key("scheme")?;
        let scheme = scheme_from_name(&r.str()?)?;
        r.key("policy")?;
        let policy = policy_from_name(&r.str()?)?;
        r.key("nwindows")?;
        let nwindows = r.u64()? as usize;
        r.key("report")?;
        let report = read_report(r)?;
        r.end_object()?;
        records.push(RunRecord { behavior, scheme, policy, nwindows, report });
        Ok(())
    })?;
    Ok(records)
}

/// The members of a [`QuarantineRecord`], in the one order every
/// encoding of one writes them: the artifact's `quarantine` list, a
/// journal's quarantine line and a daemon's `records` frame.
pub(crate) fn quarantine_members(q: &QuarantineRecord) -> Vec<(&'static str, Value)> {
    vec![
        ("id", Value::Str(q.id.clone())),
        ("key", Value::Str(q.key.clone())),
        ("label", Value::Str(q.label.clone())),
        ("reason", Value::Str(q.reason.into())),
        ("attempts", Value::Int(u64::from(q.attempts))),
        ("detail", Value::Str(q.detail.clone())),
        ("repro", Value::Str(q.repro.clone())),
    ]
}

/// A quarantine list as the artifact and a daemon's `records` frame
/// carry it: one object of [`QuarantineRecord`] members per record.
pub(crate) fn quarantine_to_value(list: &[QuarantineRecord]) -> Value {
    Value::Arr(list.iter().map(|q| obj(quarantine_members(q))).collect())
}

/// Reads the quarantine list [`quarantine_to_value`] wrote, in its
/// canonical field order. A `reason` other than `"panic"`, `"timeout"`
/// or `"error"` is an error.
fn read_quarantine_list(r: &mut Reader<'_>) -> Result<Vec<QuarantineRecord>, DecodeError> {
    let mut list = Vec::new();
    r.array(|r| -> Result<(), DecodeError> {
        r.begin_object()?;
        list.push(read_quarantine_members(r)?);
        r.end_object()?;
        Ok(())
    })?;
    Ok(list)
}

/// Reads a quarantine record's members in the order
/// [`quarantine_members`] writes them.
pub(crate) fn read_quarantine_members(r: &mut Reader<'_>) -> Result<QuarantineRecord, DecodeError> {
    let (id, key, label) =
        (string_member(r, "id")?, string_member(r, "key")?, string_member(r, "label")?);
    // `reason` needs a `&'static str`: one of the known set, so edited
    // text cannot smuggle in an arbitrary string.
    let name = string_member(r, "reason")?;
    let reason = ["panic", "timeout", "error"].into_iter().find(|&known| known == name);
    let reason =
        reason.ok_or_else(|| DecodeError(format!("unknown quarantine reason '{name}'")))?;
    r.key("attempts")?;
    let attempts = r.u64()? as u32;
    let (detail, repro) = (string_member(r, "detail")?, string_member(r, "repro")?);
    Ok(QuarantineRecord { id, key, label, reason, attempts, detail, repro })
}

/// Reads the string member named `key`.
pub(crate) fn string_member(r: &mut Reader<'_>, key: &str) -> Result<String, ParseError> {
    r.key(key)?;
    Ok(r.str()?.into_owned())
}

/// The tree decoders the pull decoders replaced, kept as their
/// differential oracle: each parses the whole text into a [`Value`] and
/// looks fields up by name, in any order. Also the damage every decoder
/// is checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::json::Value;

    fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DecodeError> {
        v.get(key).ok_or_else(|| DecodeError(format!("missing field '{key}'")))
    }

    fn need_u64(v: &Value, key: &str) -> Result<u64, DecodeError> {
        need(v, key)?
            .as_u64()
            .ok_or_else(|| DecodeError(format!("field '{key}' is not an integer")))
    }

    /// Decodes a report from a parsed tree, its fields in any order.
    pub(crate) fn report_from_value(v: &Value) -> Result<RunReport, DecodeError> {
        let scheme = scheme_from_name(
            need(v, "scheme")?.as_str().ok_or_else(|| DecodeError("scheme not a string".into()))?,
        )?;
        let policy = policy_from_name(
            need(v, "policy")?.as_str().ok_or_else(|| DecodeError("policy not a string".into()))?,
        )?;
        let nwindows = need_u64(v, "nwindows")? as usize;

        let cycles_v = need(v, "cycles")?;
        let mut cycles = CycleCounter::new();
        for c in CycleCategory::ALL {
            cycles.charge(c, need_u64(cycles_v, category_name(c))?);
        }

        let stats_v = need(v, "stats")?;
        let mut stats = MachineStats::new();
        stats.saves_executed = need_u64(stats_v, "saves_executed")?;
        stats.restores_executed = need_u64(stats_v, "restores_executed")?;
        stats.overflow_traps = need_u64(stats_v, "overflow_traps")?;
        stats.underflow_traps = need_u64(stats_v, "underflow_traps")?;
        stats.overflow_spills = need_u64(stats_v, "overflow_spills")?;
        stats.underflow_restores = need_u64(stats_v, "underflow_restores")?;
        stats.context_switches = need_u64(stats_v, "context_switches")?;
        stats.switch_saves = need_u64(stats_v, "switch_saves")?;
        stats.switch_restores = need_u64(stats_v, "switch_restores")?;
        for shape_v in need(stats_v, "switch_shapes")?
            .as_arr()
            .ok_or_else(|| DecodeError("switch_shapes not an array".into()))?
        {
            let shape = SwitchShape {
                saves: need_u64(shape_v, "saves")? as u32,
                restores: need_u64(shape_v, "restores")? as u32,
            };
            stats.switch_shapes.insert(shape, need_u64(shape_v, "count")?);
        }
        for t in need(stats_v, "threads")?
            .as_arr()
            .ok_or_else(|| DecodeError("stats.threads not an array".into()))?
        {
            stats.threads.push(ThreadStats {
                switches_out: need_u64(t, "switches_out")?,
                saves: need_u64(t, "saves")?,
                restores: need_u64(t, "restores")?,
            });
        }

        let mut threads = Vec::new();
        for t in need(v, "threads")?
            .as_arr()
            .ok_or_else(|| DecodeError("threads not an array".into()))?
        {
            threads.push(ThreadReport {
                name: need(t, "name")?
                    .as_str()
                    .ok_or_else(|| DecodeError("thread name not a string".into()))?
                    .to_string(),
                context_switches: need_u64(t, "context_switches")?,
                saves: need_u64(t, "saves")?,
                restores: need_u64(t, "restores")?,
                blocked_on_read: need_u64(t, "blocked_on_read")?,
                blocked_on_write: need_u64(t, "blocked_on_write")?,
                quarantined: need(t, "quarantined")?
                    .as_bool()
                    .ok_or_else(|| DecodeError("thread quarantined not a boolean".into()))?,
            });
        }

        let avg_parallel_slackness = need(v, "avg_parallel_slackness")?
            .as_f64()
            .ok_or_else(|| DecodeError("avg_parallel_slackness not a number".into()))?;

        let bus = match v.get("bus") {
            None => None,
            Some(bus_v) => {
                let per_pe_u64 = |key: &str| -> Result<Vec<u64>, DecodeError> {
                    need(bus_v, key)?
                        .as_arr()
                        .ok_or_else(|| DecodeError(format!("bus.{key} not an array")))?
                        .iter()
                        .map(|e| {
                            e.as_u64().ok_or_else(|| {
                                DecodeError(format!("bus.{key} entry not an integer"))
                            })
                        })
                        .collect()
                };
                Some(BusSummary {
                    pes: need_u64(bus_v, "pes")? as usize,
                    grants: need_u64(bus_v, "grants")?,
                    messages: need_u64(bus_v, "messages")?,
                    stall_cycles: need_u64(bus_v, "stall_cycles")?,
                    makespan_cycles: need_u64(bus_v, "makespan_cycles")?,
                    per_pe_cycles: per_pe_u64("per_pe_cycles")?,
                    per_pe_stalls: per_pe_u64("per_pe_stalls")?,
                })
            }
        };

        Ok(RunReport {
            scheme,
            policy,
            nwindows,
            cycles,
            stats,
            threads,
            avg_parallel_slackness,
            bus,
        })
    }

    /// [`report_from_value`] over the parsed `text`.
    pub(crate) fn tree_report(text: &str) -> Result<RunReport, DecodeError> {
        report_from_value(&crate::json::parse(text)?)
    }

    /// Every truncation and every single-bit flip of `text`, as a reader
    /// sees it: bytes that are no longer UTF-8 are replaced, as journal
    /// replay replaces them (the frame reader refuses such a line).
    pub(crate) fn damaged(text: &str) -> impl Iterator<Item = String> + '_ {
        let bytes = text.as_bytes();
        let cuts = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
        let flips = (0..bytes.len() * 8).map(move |bit| {
            let mut flipped = bytes.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        cuts.chain(flips).map(|b| String::from_utf8_lossy(&b).into_owned())
    }

    /// The records decoder the client ran on a `records` frame's
    /// `records` member, split out of the frame by its member split.
    pub(crate) fn records_from_json(text: &str) -> Result<Vec<RunRecord>, DecodeError> {
        let mut r = Reader::new(text);
        let records = read_records(&mut r)?;
        r.finish()?;
        Ok(records)
    }

    /// The quarantine list decoder the client ran on a `records` frame's
    /// `quarantine` member.
    pub(crate) fn quarantine_from_json(text: &str) -> Result<Vec<QuarantineRecord>, DecodeError> {
        let mut r = Reader::new(text);
        let list = read_quarantine_list(&mut r)?;
        r.finish()?;
        Ok(list)
    }

    /// The client's path before the one-pass decoder: split the frame
    /// into its members (in any order), decode `records` and
    /// `quarantine` from their text and `summary` through a tree.
    /// `Ok(None)` is a frame of another type.
    pub(crate) fn member_split_frame(text: &str) -> Result<Option<RecordsFrame>, DecodeError> {
        let parts = crate::json::oracle::members(text)?;
        let part = |name: &str| {
            parts
                .iter()
                .find(|(key, _)| key == name)
                .map(|&(_, text)| text)
                .ok_or_else(|| DecodeError(format!("frame without '{name}'")))
        };
        if crate::json::parse(part("type")?)?.as_str() != Some("records") {
            return Ok(None);
        }
        let summary = crate::json::parse(part("summary")?)?;
        let summary = SweepSummary {
            jobs: need_u64(&summary, "jobs")? as usize,
            cache_hits: need_u64(&summary, "cache_hits")? as usize,
            cache_misses: need_u64(&summary, "cache_misses")? as usize,
            quarantined: need_u64(&summary, "quarantined")? as usize,
        };
        Ok(Some(RecordsFrame {
            records: records_from_json(part("records")?)?,
            summary,
            quarantine: quarantine_from_json(part("quarantine")?)?,
        }))
    }

    /// Decodes the records of a `records` frame from a parsed tree.
    pub(crate) fn records_from_value(v: &Value) -> Result<Vec<RunRecord>, DecodeError> {
        let str_of = |r: &Value, key: &str| -> Result<String, DecodeError> {
            need(r, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| DecodeError(format!("field '{key}' not a string")))
        };
        v.as_arr()
            .ok_or_else(|| DecodeError("'records' not an array".into()))?
            .iter()
            .map(|r| {
                let behavior = behavior_from_name(&str_of(r, "behavior")?)?;
                let scheme = scheme_from_name(&str_of(r, "scheme")?)?;
                let policy_name = str_of(r, "policy")?;
                let policy = SchedulingPolicy::parse(&policy_name)
                    .ok_or_else(|| DecodeError(format!("unknown policy '{policy_name}'")))?;
                let nwindows = need_u64(r, "nwindows")? as usize;
                let report = report_from_value(need(r, "report")?)?;
                Ok(RunRecord { behavior, scheme, policy, nwindows, report })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{
        damaged, member_split_frame, quarantine_from_json, records_from_json, records_from_value,
        tree_report,
    };
    use super::*;
    use crate::json::oracle::members;
    use crate::json::{obj, parse, Value, MAX_DEPTH};
    use crate::{JobKey, SweepConfig, SweepEngine};
    use regwin_cluster::{run_spell_cluster, ClusterConfig};
    use regwin_core::figures::Sweep;
    use regwin_core::MatrixSpec;
    use regwin_spell::{CorpusSpec, SpellConfig, SpellPipeline};

    /// The tree writer `report_to_json` replaced: the byte oracle.
    fn report_to_value(report: &RunReport) -> Value {
        let cycles = Value::Obj(
            CycleCategory::ALL
                .iter()
                .map(|&c| (category_name(c).to_string(), Value::Int(report.cycles.category(c))))
                .collect(),
        );
        let shapes = Value::Arr(
            report
                .stats
                .switch_shapes
                .iter()
                .map(|(shape, count)| {
                    obj(vec![
                        ("saves", Value::Int(u64::from(shape.saves))),
                        ("restores", Value::Int(u64::from(shape.restores))),
                        ("count", Value::Int(*count)),
                    ])
                })
                .collect(),
        );
        let thread_stats = Value::Arr(
            report
                .stats
                .threads
                .iter()
                .map(|t| {
                    obj(vec![
                        ("switches_out", Value::Int(t.switches_out)),
                        ("saves", Value::Int(t.saves)),
                        ("restores", Value::Int(t.restores)),
                    ])
                })
                .collect(),
        );
        let stats = obj(vec![
            ("saves_executed", Value::Int(report.stats.saves_executed)),
            ("restores_executed", Value::Int(report.stats.restores_executed)),
            ("overflow_traps", Value::Int(report.stats.overflow_traps)),
            ("underflow_traps", Value::Int(report.stats.underflow_traps)),
            ("overflow_spills", Value::Int(report.stats.overflow_spills)),
            ("underflow_restores", Value::Int(report.stats.underflow_restores)),
            ("context_switches", Value::Int(report.stats.context_switches)),
            ("switch_saves", Value::Int(report.stats.switch_saves)),
            ("switch_restores", Value::Int(report.stats.switch_restores)),
            ("switch_shapes", shapes),
            ("threads", thread_stats),
        ]);
        let threads = Value::Arr(
            report
                .threads
                .iter()
                .map(|t| {
                    obj(vec![
                        ("name", Value::Str(t.name.clone())),
                        ("context_switches", Value::Int(t.context_switches)),
                        ("saves", Value::Int(t.saves)),
                        ("restores", Value::Int(t.restores)),
                        ("blocked_on_read", Value::Int(t.blocked_on_read)),
                        ("blocked_on_write", Value::Int(t.blocked_on_write)),
                        ("quarantined", Value::Bool(t.quarantined)),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("scheme", Value::Str(report.scheme.name().to_string())),
            ("policy", Value::Str(report.policy.name().to_string())),
            ("nwindows", Value::Int(report.nwindows as u64)),
            ("cycles", cycles),
            ("stats", stats),
            ("threads", threads),
            ("avg_parallel_slackness", Value::Float(report.avg_parallel_slackness)),
        ];
        // The bus section exists only for multi-PE cluster reports, so a
        // legacy report's serialized form is unchanged byte-for-byte.
        if let Some(bus) = &report.bus {
            fields.push((
                "bus",
                obj(vec![
                    ("pes", Value::Int(bus.pes as u64)),
                    ("grants", Value::Int(bus.grants)),
                    ("messages", Value::Int(bus.messages)),
                    ("stall_cycles", Value::Int(bus.stall_cycles)),
                    ("makespan_cycles", Value::Int(bus.makespan_cycles)),
                    (
                        "per_pe_cycles",
                        Value::Arr(bus.per_pe_cycles.iter().map(|&c| Value::Int(c)).collect()),
                    ),
                    (
                        "per_pe_stalls",
                        Value::Arr(bus.per_pe_stalls.iter().map(|&c| Value::Int(c)).collect()),
                    ),
                ]),
            ));
        }
        obj(fields)
    }

    fn sample_bus() -> BusSummary {
        BusSummary {
            pes: 4,
            grants: 120,
            messages: 116,
            stall_cycles: 950,
            makespan_cycles: 88_000,
            per_pe_cycles: vec![88_000, 81_500, 80_250, 79_990],
            per_pe_stalls: vec![0, 300, 310, 340],
        }
    }

    #[test]
    fn the_direct_writer_matches_the_tree_writer_byte_for_byte() {
        for scheme in [SchemeKind::Ns, SchemeKind::Snp, SchemeKind::Sp] {
            let mut r = SpellPipeline::new(SpellConfig::small()).run(8, scheme).unwrap().report;
            assert!(!r.threads.is_empty() && !r.stats.switch_shapes.is_empty());
            assert_eq!(report_to_json(&r), report_to_value(&r).to_json(), "{scheme:?}");
            r.bus = Some(sample_bus());
            assert_eq!(report_to_json(&r), report_to_value(&r).to_json(), "{scheme:?} + bus");
            // An integral slackness must keep its fractional form.
            r.avg_parallel_slackness = 3.0;
            let text = report_to_json(&r);
            assert!(text.contains("\"avg_parallel_slackness\":3.0,"), "{text}");
            assert_eq!(text, report_to_value(&r).to_json(), "{scheme:?} integral slackness");
        }
    }

    #[test]
    fn real_report_roundtrips_exactly() {
        let outcome = SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap();
        let r = outcome.report;
        let text = report_to_json(&r);
        let back = report_from_json(&text).unwrap();
        assert_eq!(back.scheme, r.scheme);
        assert_eq!(back.policy, r.policy);
        assert_eq!(back.nwindows, r.nwindows);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.threads, r.threads);
        assert_eq!(back.avg_parallel_slackness, r.avg_parallel_slackness);
        // And serialization itself is stable.
        assert_eq!(report_to_json(&back), text);
    }

    #[test]
    fn derived_metrics_survive_the_roundtrip() {
        let outcome = SpellPipeline::new(SpellConfig::small()).run(6, SchemeKind::Ns).unwrap();
        let r = outcome.report;
        let back = report_from_json(&report_to_json(&r)).unwrap();
        assert_eq!(back.total_cycles(), r.total_cycles());
        assert_eq!(back.overhead_cycles(), r.overhead_cycles());
        assert_eq!(back.avg_switch_cycles(), r.avg_switch_cycles());
        assert_eq!(back.trap_probability(), r.trap_probability());
    }

    #[test]
    fn bus_section_roundtrips_and_is_absent_on_legacy_reports() {
        let outcome = SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap();
        let mut r = outcome.report;
        assert!(r.bus.is_none());
        assert!(!report_to_json(&r).contains("\"bus\""));
        r.bus = Some(sample_bus());
        let text = report_to_json(&r);
        let back = report_from_json(&text).unwrap();
        assert_eq!(back.bus, r.bus);
        assert_eq!(report_to_json(&back), text);
    }

    #[test]
    fn missing_field_is_an_error() {
        let outcome = SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Snp).unwrap();
        let text = report_to_json(&outcome.report).replace("\"nwindows\"", "\"notwindows\"");
        assert!(report_from_json(&text).is_err());
    }

    /// The cells of `records` in comparable form.
    fn cells(
        records: &[RunRecord],
    ) -> Vec<(Behavior, SchemeKind, SchedulingPolicy, usize, &RunReport)> {
        records.iter().map(|r| (r.behavior, r.scheme, r.policy, r.nwindows, &r.report)).collect()
    }

    /// The tree writer `records_to_json` replaced: the byte oracle.
    fn records_to_value(records: &[RunRecord]) -> Value {
        Value::Arr(
            records
                .iter()
                .map(|r| {
                    obj(vec![
                        ("behavior", Value::Str(r.behavior.to_string())),
                        ("scheme", Value::Str(r.scheme.name().into())),
                        ("policy", Value::Str(r.policy.name().into())),
                        ("nwindows", Value::Int(r.nwindows as u64)),
                        ("report", Value::Raw(report_to_json(&r.report))),
                    ])
                })
                .collect(),
        )
    }

    fn quarantined() -> QuarantineRecord {
        QuarantineRecord {
            id: "deadbeef".into(),
            key: "v6|exp=matrix".into(),
            label: "SP FIFO w=8".into(),
            reason: "timeout",
            attempts: 3,
            detail: "wedged \"hard\"".into(),
            repro: "v6|... --fault-seed 1".into(),
        }
    }

    /// `frame` through the one encoder.
    fn encode(frame: &RecordsFrame) -> String {
        let mut text = String::new();
        write_records_frame(&mut text, |out| {
            out.push_str(&records_to_json(&frame.records));
            Ok::<_, DecodeError>((frame.summary, frame.quarantine.clone()))
        })
        .unwrap();
        text
    }

    /// A `records` frame for `records`, with one quarantine record.
    fn records_frame(records: &[RunRecord]) -> String {
        let summary =
            SweepSummary { jobs: records.len(), cache_hits: 1, cache_misses: 2, quarantined: 1 };
        encode(&RecordsFrame {
            records: records.to_vec(),
            summary,
            quarantine: vec![quarantined()],
        })
    }

    /// The client's path: pull the frame in one pass.
    fn pull_records(frame: &str) -> Result<Vec<RunRecord>, DecodeError> {
        let frame = records_frame_from_json(frame)?;
        Ok(frame.ok_or_else(|| DecodeError("not a records frame".into()))?.records)
    }

    /// Asserts that two decoded `records` frames carry the same cells,
    /// summary and quarantine list.
    fn assert_same_frame(a: &RecordsFrame, b: &RecordsFrame, what: &str) {
        assert_eq!(cells(&a.records), cells(&b.records), "{what}");
        assert_eq!(a.summary, b.summary, "{what}");
        assert_eq!(a.quarantine, b.quarantine, "{what}");
    }

    /// The tree path the client took before: parse the frame, walk it.
    fn tree_records(frame: &str) -> Result<Vec<RunRecord>, DecodeError> {
        let v = parse(frame)?;
        records_from_value(v.get("records").ok_or_else(|| DecodeError("no records".into()))?)
    }

    #[test]
    fn pull_and_tree_decoders_agree_on_fifo_ws_and_cluster_reports() {
        let windows = MatrixSpec::quick_window_sweep();
        let fifo = Sweep::high_spec(CorpusSpec::small(), &windows, SchedulingPolicy::Fifo);
        let ws = MatrixSpec { policy: SchedulingPolicy::WorkingSet, ..fifo.clone() };
        let cfg = ClusterConfig::homogeneous(4, SchemeKind::Sp, 8, SpellConfig::small());
        let cluster = run_spell_cluster(&cfg, None).unwrap().report.merged();
        assert!(cluster.bus.is_some(), "a multi-PE report carries the bus section");
        let mut reports = vec![cluster];
        for spec in [fifo, ws] {
            let records = SweepEngine::quiet().run_matrix(&spec).unwrap();
            assert_eq!(records.len(), spec.len());
            assert_eq!(records_to_json(&records), records_to_value(&records).to_json());
            let frame = records_frame(&records);
            let (pulled, tree) = (pull_records(&frame).unwrap(), tree_records(&frame).unwrap());
            assert_eq!(cells(&pulled), cells(&tree), "{:?}", spec.policy);
            assert_eq!(cells(&pulled), cells(&records), "{:?}", spec.policy);
            reports.extend(records.into_iter().map(|r| r.report));
        }
        for report in &reports {
            let text = report_to_json(report);
            let pulled = report_from_json(&text).unwrap();
            assert_eq!(pulled, tree_report(&text).unwrap());
            assert_eq!(&pulled, report);
        }
    }

    #[test]
    fn damaged_reports_and_records_frames_decode_like_the_tree_or_fail_typed() {
        let mut report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Sp).unwrap().report;
        report.bus = Some(sample_bus());
        let text = report_to_json(&report);
        let mut decoded = 0;
        for d in damaged(&text) {
            if let Ok(pulled) = report_from_json(&d) {
                assert_eq!(Ok(pulled), tree_report(&d), "{d}");
                decoded += 1;
            }
        }
        assert!(decoded > 0, "some flips (a digit for a digit) still decode");
        let record = RunRecord {
            behavior: Behavior::ALL[1],
            scheme: SchemeKind::Sp,
            policy: SchedulingPolicy::Fifo,
            nwindows: 8,
            report,
        };
        let frame = records_frame(&[record]);
        decoded = 0;
        for d in damaged(&frame) {
            // One pass gives the member split's result or a typed error.
            if let Ok(Some(pulled)) = records_frame_from_json(&d) {
                let split = member_split_frame(&d).unwrap().expect("a records frame");
                assert_same_frame(&pulled, &split, &d);
                assert_eq!(cells(&pulled.records), cells(&tree_records(&d).unwrap()), "{d}");
                decoded += 1;
            }
        }
        assert!(decoded > 0, "some flips (a digit for a digit) still decode");
    }

    /// The `records` frame a daemon session sends for `spec`: the engine
    /// writes the records text into the frame, as `regwin-serve` does.
    fn daemon_frame(engine: &SweepEngine, spec: &MatrixSpec) -> String {
        let mut frame = String::new();
        write_records_frame(&mut frame, |out| {
            engine.run_matrix_json(spec, out)?;
            Ok::<_, regwin_rt::RtError>((engine.summary(), engine.quarantine()))
        })
        .unwrap();
        frame
    }

    #[test]
    fn one_pass_and_member_split_agree_on_cold_warm_and_mixed_daemon_frames() {
        let dir = std::env::temp_dir().join(format!("regwin-frame-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = Sweep::high_spec(CorpusSpec::small(), &[4, 8], SchedulingPolicy::Fifo);
        let want = SweepEngine::quiet().run_matrix(&spec).unwrap();
        let session = || {
            let config = SweepConfig::builder()
                .cache_dir(dir.clone())
                .deterministic_artifact(true)
                .build()
                .unwrap();
            SweepEngine::with_config(config)
        };
        let check = |what: &str, hits: usize| {
            let frame = daemon_frame(&session(), &spec);
            let pulled = records_frame_from_json(&frame).unwrap().expect("a records frame");
            let split = member_split_frame(&frame).unwrap().expect("a records frame");
            assert_same_frame(&pulled, &split, what);
            assert_eq!(cells(&pulled.records), cells(&want), "{what}");
            assert_eq!(pulled.summary.cache_hits, hits, "{what}");
            assert_eq!(encode(&pulled), frame, "{what}: re-encoding gives back the bytes");
        };
        check("cold", 0);
        check("warm", spec.len());
        for scheme in [SchemeKind::Ns, SchemeKind::Sp] {
            let key = JobKey::for_cell(&spec, spec.behaviors[0], scheme, 8);
            std::fs::remove_file(dir.join(format!("{}.json", key.id()))).unwrap();
        }
        check("mixed", spec.len() - 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_records_frame_out_of_canonical_member_order_is_a_decode_error() {
        let records = SweepEngine::quiet()
            .run_matrix(&Sweep::high_spec(CorpusSpec::small(), &[4], SchedulingPolicy::Fifo))
            .unwrap();
        let frame = records_frame(&records);
        let Value::Obj(mut members) = parse(&frame).unwrap() else {
            panic!("a frame is an object")
        };
        // type, summary, records, quarantine.
        members.swap(1, 2);
        let reordered = Value::Obj(members).to_json();
        let split =
            member_split_frame(&reordered).unwrap().expect("the member split takes any order");
        assert_same_frame(&split, &records_frame_from_json(&frame).unwrap().unwrap(), "split");
        let err = records_frame_from_json(&reordered).unwrap_err();
        assert!(err.0.contains("expected key \"records\""), "{err}");
        // A frame of another type is not a records frame at all.
        for other in ["{\"type\":\"sweep_error\",\"detail\":\"x\"}", "[1]", "{}", ""] {
            assert!(records_frame_from_json(other).unwrap().is_none(), "{other}");
        }
    }

    #[test]
    fn a_records_frame_nested_past_max_depth_is_a_typed_error() {
        for depth in [MAX_DEPTH + 1, 1 << 20] {
            let deep = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let records = format!(
                "[{{\"behavior\":\"high/fine\",\"scheme\":\"SP\",\"policy\":\"FIFO\",\
                 \"nwindows\":8,\"report\":{deep}}}]"
            );
            let frame = format!("{{\"type\":\"records\",\"records\":{records}}}");
            let err = members(&frame).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
            assert!(records_frame_from_json(&frame).is_err());
            assert!(records_from_json(&records).is_err());
            assert!(report_from_json(&deep).is_err());
        }
    }

    #[test]
    fn a_valid_report_out_of_canonical_order_is_a_decode_error() {
        let report =
            SpellPipeline::new(SpellConfig::small()).run(8, SchemeKind::Ns).unwrap().report;
        let text = report_to_json(&report);
        let Value::Obj(mut fields) = parse(&text).unwrap() else { panic!("a report is an object") };
        fields.swap(0, 1);
        let reordered = Value::Obj(fields).to_json();
        let extra = text.replacen('{', "{\"extra\":1,", 1);
        for edited in [reordered, extra] {
            assert_eq!(tree_report(&edited).as_ref(), Ok(&report), "the tree takes any order");
            let err = report_from_json(&edited).unwrap_err();
            assert!(err.0.contains("expected key \"scheme\""), "{err}");
        }
        // Whitespace between tokens is not a layout change.
        let spaced = text.replace(",\"", ", \"").replace("\":", "\" : ");
        assert_eq!(report_from_json(&spaced).unwrap(), report);
    }

    #[test]
    fn quarantine_lists_round_trip_and_an_unknown_reason_is_an_error() {
        let q = vec![quarantined()];
        let text = quarantine_to_value(&q).to_json();
        assert_eq!(quarantine_from_json(&text).unwrap(), q);
        assert_eq!(quarantine_from_json("[]").unwrap(), []);
        let err = quarantine_from_json(&text.replace("timeout", "boredom")).unwrap_err();
        assert!(err.0.contains("unknown quarantine reason 'boredom'"), "{err}");
    }
}
