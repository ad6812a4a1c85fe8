//! Adversarial JSON round-trips: rendered reports and events must
//! survive hostile strings (quotes, backslashes, control characters,
//! astral characters) and parse back with every field intact.

use m3d_fault_diagnosis::lint::{Diagnostic, LintCode, LintReport, Span};
use m3d_fault_diagnosis::netlist::NetId;
use m3d_fault_diagnosis::obs::json::{parse, Json};

/// Strings chosen to break naive escaping: every JSON metacharacter,
/// the full C0 control range's edges, and astral-plane characters that
/// need surrogate pairs in other ecosystems' writers.
fn hostile_strings() -> Vec<String> {
    vec![
        "plain ascii".to_owned(),
        "quote \" backslash \\ slash / end".to_owned(),
        "newline \n tab \t carriage \r return".to_owned(),
        "\u{0}\u{1}\u{1f} bell \u{7} escape \u{1b}".to_owned(),
        "astral \u{1F600} and max \u{10FFFF}".to_owned(),
        "C:\\path\\to\\\"file\".v".to_owned(),
        "embedded json {\"a\":[1,2],\"b\":\"x\"}".to_owned(),
        "trailing backslash \\".to_owned(),
    ]
}

#[test]
fn lint_report_json_round_trips_hostile_messages() {
    let hostile = hostile_strings();
    let mut report = LintReport::new("design \"x\\y\"\nwith \u{1F4A3} in the name");
    for (i, msg) in hostile.iter().enumerate() {
        report.push(Diagnostic::new(
            LintCode::DanglingNet,
            Span::Net(NetId::new(i)),
            msg.clone(),
        ));
    }

    let rendered = report.render_json();
    let doc = parse(&rendered).expect("render_json output must be valid JSON");

    assert_eq!(
        doc.get("target").and_then(Json::as_str),
        Some(report.target()),
        "target string must survive the round-trip"
    );
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_arr)
        .expect("diagnostics array");
    assert_eq!(diags.len(), hostile.len());
    for (entry, msg) in diags.iter().zip(&hostile) {
        assert_eq!(entry.get("code").and_then(Json::as_str), Some("L0002"));
        assert_eq!(
            entry.get("message").and_then(Json::as_str),
            Some(msg.as_str()),
            "message must survive the round-trip"
        );
    }
}

#[test]
fn obs_json_round_trips_hostile_values_and_keys() {
    let obj = Json::Obj(
        hostile_strings()
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("k{i} {s}"), Json::Str(s)))
            .collect(),
    );
    let doc = Json::Arr(vec![obj.clone(), Json::Str(String::new())]);
    let rendered = doc.render();
    assert_eq!(parse(&rendered).expect("valid JSON"), doc);
    // Render is deterministic through a second cycle.
    assert_eq!(parse(&rendered).unwrap().render(), rendered);
}
