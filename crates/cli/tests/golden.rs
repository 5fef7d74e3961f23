//! Golden outputs of the `pst` binary: the exact stdout, stderr and exit
//! code of every printing command on the two example programs, of the
//! canonicalizer and the graph lint on one messy edge list, and every
//! serve method's reply for one mini unit and one edge unit.
//!
//! Each case is one file under `tests/golden/`, rendered as
//! `exit: <code>`, `--- stdout`, the stdout bytes, `--- stderr`, the
//! stderr bytes. Commands run from the workspace root, so the input
//! paths they echo are the relative paths below. Serve replies are
//! pinned whole except the envelope's `nanos`, which is a timing.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use pst_obs::json::Json;

/// The edge list the graph cases read: an entry with predecessors, an
/// unreachable node, a self-loop, two sinks, an inescapable cycle, an
/// irreducible loop and one decisive order dependence (branch 5 orders
/// 6 and 7).
const MESSY: &str = "crates/cli/tests/golden/messy.edges";

const PROGRAMS: [&str; 2] = ["examples/fig1.mini", "examples/defects.mini"];

const COMMANDS: [&str; 9] = [
    "regions",
    "kinds",
    "dot",
    "clusters",
    "control-regions",
    "ssa",
    "dataflow",
    "loops",
    "intervals",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run(args: &[&str], stdin: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pst"));
    cmd.args(args)
        .current_dir(workspace_root())
        .env_remove("PST_METRICS")
        .env_remove("PST_JOURNAL")
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary runs");
    if let Some(input) = stdin {
        let mut pipe = child.stdin.take().expect("stdin piped");
        pipe.write_all(input.as_bytes()).expect("write stdin");
    }
    let out = child.wait_with_output().expect("wait");
    format!(
        "exit: {}\n--- stdout\n{}--- stderr\n{}",
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

fn check(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name}: output differs from {}\n--- expected\n{expected}\n--- actual\n{actual}",
        path.display()
    );
}

fn stem(path: &str) -> &str {
    Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("example paths have a stem")
}

#[test]
fn printing_commands_match_their_golden_outputs() {
    for program in PROGRAMS {
        for command in COMMANDS {
            let name = format!("{command}-{}", stem(program));
            check(&name, &run(&[command, program], None));
        }
    }
}

#[test]
fn paranoid_canonicalize_matches_its_golden_output() {
    check(
        "canonicalize-paranoid-messy",
        &run(&["--canonicalize", MESSY, "--paranoid"], None),
    );
}

#[test]
fn lint_json_matches_its_golden_outputs() {
    check(
        "lint-json-defects",
        &run(&["lint", "examples/defects.mini", "--json"], None),
    );
    check(
        "lint-json-edges-messy",
        &run(&["lint", "--edges", MESSY, "--json"], None),
    );
}

/// One stdio serve session: every method on a mini unit, then every
/// method on an edge unit (`lint` before `controldep`, so the edge unit
/// shares the DOD in the order that hands it over), then shutdown.
#[test]
fn serve_methods_match_their_golden_replies() {
    let read = |path: &str| {
        std::fs::read_to_string(workspace_root().join(path))
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let mini = read("examples/fig1.mini");
    let edges = read(MESSY);
    let mut input = String::new();
    let mut id = 0u64;
    let mut ask = |method: &str, field: &str, text: &str| {
        id += 1;
        let request = Json::obj([
            ("id", Json::UInt(id)),
            ("method", Json::Str(method.to_string())),
            (field, Json::Str(text.to_string())),
        ]);
        input.push_str(&format!("{request}\n"));
    };
    for method in [
        "pst",
        "control_regions",
        "controldep",
        "lint",
        "ssa",
        "dataflow",
        "canonicalize",
    ] {
        ask(method, "source", &mini);
    }
    for method in [
        "pst",
        "control_regions",
        "lint",
        "controldep",
        "canonicalize",
        "ssa",
        "dataflow",
    ] {
        ask(method, "edges", &edges);
    }
    input.push_str("{\"id\":99,\"method\":\"shutdown\"}\n");
    let raw = run(&["serve"], Some(&input));
    let (head, rest) = raw
        .split_once("--- stdout\n")
        .expect("rendered run has a stdout section");
    let (stdout, stderr) = rest
        .split_once("--- stderr\n")
        .expect("rendered run has a stderr section");
    let mut replies = String::new();
    for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
        let reply = Json::parse(line).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {line}"));
        let Json::Obj(fields) = reply else {
            panic!("reply is not an object: {line}");
        };
        let pinned = Json::Obj(fields.into_iter().filter(|(k, _)| k != "nanos").collect());
        replies.push_str(&format!("{pinned}\n"));
    }
    check(
        "serve-replies",
        &format!("{head}--- stdout\n{replies}--- stderr\n{stderr}"),
    );
}
