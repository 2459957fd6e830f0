//! [`RunReport`] ⇄ JSON, lossless and byte-deterministic.
//!
//! `CycleCounter` keeps its fields private, so cycles serialize by
//! category through the public [`CycleCategory`] accessors and rebuild
//! through `charge()`. `switch_shapes` is a `BTreeMap`, so its
//! iteration order — and therefore the serialized form — is already
//! deterministic; nothing in a report goes through a `HashMap`.
//!
//! Encoding writes the text directly, without building a [`Value`]
//! tree; decoding parses into one. A report is serialized at most once
//! per job: the cache and the journal store those exact bytes, and a
//! cache hit hands its verified bytes to the journal unchanged.

use crate::json::{parse, write_f64, write_string, write_u64, Value};
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
/// with no intermediate [`Value`] tree. These bytes are what the cache
/// and the journal checksum, so the field order is fixed.
pub fn report_to_json(report: &RunReport) -> String {
    let mut out = String::with_capacity(2048);
    out.push('{');
    str_field(&mut out, "scheme", report.scheme.name());
    str_field(&mut out, "policy", report.policy.name());
    int_field(&mut out, "nwindows", report.nwindows as u64);
    field(&mut out, "cycles");
    out.push('{');
    for c in CycleCategory::ALL {
        int_field(&mut out, category_name(c), report.cycles.category(c));
    }
    out.push('}');
    let stats = &report.stats;
    field(&mut out, "stats");
    out.push('{');
    int_field(&mut out, "saves_executed", stats.saves_executed);
    int_field(&mut out, "restores_executed", stats.restores_executed);
    int_field(&mut out, "overflow_traps", stats.overflow_traps);
    int_field(&mut out, "underflow_traps", stats.underflow_traps);
    int_field(&mut out, "overflow_spills", stats.overflow_spills);
    int_field(&mut out, "underflow_restores", stats.underflow_restores);
    int_field(&mut out, "context_switches", stats.context_switches);
    int_field(&mut out, "switch_saves", stats.switch_saves);
    int_field(&mut out, "switch_restores", stats.switch_restores);
    field(&mut out, "switch_shapes");
    array(&mut out, &stats.switch_shapes, |out, (shape, &count)| {
        out.push('{');
        int_field(out, "saves", u64::from(shape.saves));
        int_field(out, "restores", u64::from(shape.restores));
        int_field(out, "count", count);
        out.push('}');
    });
    field(&mut out, "threads");
    array(&mut out, &stats.threads, |out, t| {
        out.push('{');
        int_field(out, "switches_out", t.switches_out);
        int_field(out, "saves", t.saves);
        int_field(out, "restores", t.restores);
        out.push('}');
    });
    out.push('}');
    field(&mut out, "threads");
    array(&mut out, &report.threads, |out, t| {
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
    field(&mut out, "avg_parallel_slackness");
    write_f64(report.avg_parallel_slackness, &mut out);
    // The bus section exists only for multi-PE cluster reports, so a
    // legacy report's serialized form is unchanged byte-for-byte.
    if let Some(bus) = &report.bus {
        field(&mut out, "bus");
        out.push('{');
        int_field(&mut out, "pes", bus.pes as u64);
        int_field(&mut out, "grants", bus.grants);
        int_field(&mut out, "messages", bus.messages);
        int_field(&mut out, "stall_cycles", bus.stall_cycles);
        int_field(&mut out, "makespan_cycles", bus.makespan_cycles);
        field(&mut out, "per_pe_cycles");
        array(&mut out, &bus.per_pe_cycles, |out, &c| write_u64(c, out));
        field(&mut out, "per_pe_stalls");
        array(&mut out, &bus.per_pe_stalls, |out, &c| write_u64(c, out));
        out.push('}');
    }
    out.push('}');
    out
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

fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DecodeError> {
    v.get(key).ok_or_else(|| DecodeError(format!("missing field '{key}'")))
}

fn need_u64(v: &Value, key: &str) -> Result<u64, DecodeError> {
    need(v, key)?.as_u64().ok_or_else(|| DecodeError(format!("field '{key}' is not an integer")))
}

fn scheme_from_name(name: &str) -> Result<SchemeKind, DecodeError> {
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

/// Deserializes a report from a JSON value.
///
/// # Errors
///
/// Fails on missing or mistyped fields.
pub fn report_from_value(v: &Value) -> Result<RunReport, DecodeError> {
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
    for t in
        need(v, "threads")?.as_arr().ok_or_else(|| DecodeError("threads not an array".into()))?
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
                        e.as_u64()
                            .ok_or_else(|| DecodeError(format!("bus.{key} entry not an integer")))
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

    Ok(RunReport { scheme, policy, nwindows, cycles, stats, threads, avg_parallel_slackness, bus })
}

/// Deserializes a report from a JSON string.
///
/// # Errors
///
/// Fails on malformed JSON or missing fields.
pub fn report_from_json(text: &str) -> Result<RunReport, DecodeError> {
    let v = parse(text).map_err(|e| DecodeError(e.to_string()))?;
    report_from_value(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use regwin_spell::{SpellConfig, SpellPipeline};

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
}
