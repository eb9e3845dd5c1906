//! Batch-mode integration test: `--generate` a suite, solve the
//! directory with `--jobs 4`, and assert the per-instance `r` summary
//! lines match sequential single-file runs of the same binary.

use std::collections::HashMap;
use std::process::Command;

fn binary() -> &'static str {
    env!("CARGO_BIN_EXE_coremax-solve")
}

/// Parses `o`/`s` lines of a single-instance run into (status, cost).
fn parse_single(stdout: &str) -> (String, Option<u64>) {
    let mut cost = None;
    let mut status = String::new();
    for line in stdout.lines() {
        if let Some(c) = line.strip_prefix("o ") {
            cost = Some(c.trim().parse().expect("numeric o line"));
        }
        if let Some(s) = line.strip_prefix("s ") {
            status = match s.trim() {
                "OPTIMUM FOUND" => "OPTIMAL".to_string(),
                "UNSATISFIABLE" => "INFEASIBLE".to_string(),
                other => other.to_string(),
            };
        }
    }
    (status, cost)
}

#[test]
fn batch_jobs4_matches_sequential_single_file_runs() {
    let dir = std::env::temp_dir().join("coremax-batch-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.display().to_string();

    // Generate a small suite (pigeonhole: a handful of quick UNSAT
    // instances with known structure).
    let generate = Command::new(binary())
        .args(["--generate", &dir_s, "--family", "php"])
        .output()
        .expect("run generator");
    assert!(generate.status.success(), "generate failed: {generate:?}");

    // Batch-solve the directory with 4 workers.
    let batch = Command::new(binary())
        .args(["--jobs", "4", &dir_s])
        .output()
        .expect("run batch");
    assert!(batch.status.success(), "batch failed: {batch:?}");
    let stdout = String::from_utf8(batch.stdout).expect("utf8 stdout");

    // Collect the per-instance summaries: `r FILE STATUS COST`.
    let mut batch_results: HashMap<String, (String, Option<u64>)> = HashMap::new();
    for line in stdout.lines().filter(|l| l.starts_with("r ")) {
        let mut parts = line.split_whitespace();
        let _r = parts.next();
        let file = parts.next().expect("file column").to_string();
        let status = parts.next().expect("status column").to_string();
        let cost = match parts.next().expect("cost column") {
            "-" => None,
            c => Some(c.parse().expect("numeric cost")),
        };
        batch_results.insert(file, (status, cost));
    }
    assert!(
        batch_results.len() >= 2,
        "expected several instances, got: {stdout}"
    );
    assert!(stdout.contains("c batch:"), "summary line present");

    // Every file solved sequentially (fresh process, no --jobs) must
    // report the same status and cost.
    for (file, (batch_status, batch_cost)) in &batch_results {
        let path = dir.join(file).display().to_string();
        let single = Command::new(binary())
            .args(["--verify", &path])
            .output()
            .expect("run single");
        let (status, cost) = parse_single(&String::from_utf8(single.stdout).expect("utf8"));
        assert_eq!(&status, batch_status, "{file}: status diverged");
        assert_eq!(&cost, batch_cost, "{file}: cost diverged");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_file_hard_abort_exits_30() {
    // A zero-millisecond budget is exhausted before the first SAT
    // call: no incumbent exists, only the (trivial) lower bound — the
    // hard-abort exit code, not the incumbent-carrying 10.
    let dir = std::env::temp_dir().join("coremax-abort-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("example2.cnf");
    std::fs::write(
        &path,
        "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
    )
    .unwrap();
    let output = Command::new(binary())
        .args(["--timeout-ms", "0"])
        .arg(path.display().to_string())
        .output()
        .expect("run single with exhausted budget");
    assert_eq!(
        output.status.code(),
        Some(30),
        "hard abort must exit 30: {output:?}"
    );
    let (status, cost) = parse_single(&String::from_utf8(output.stdout).expect("utf8"));
    assert_eq!(status, "UNKNOWN");
    assert_eq!(cost, None, "no o line without an incumbent");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_header_variable_count_exits_2() {
    // `p cnf 3000000000 1` declares more variables than a literal can
    // name. It must be a parse error (exit 2), with preprocessing on or
    // off, and never an abort on a per-variable allocation.
    use std::io::Write;
    use std::process::Stdio;
    for extra in [&[][..], &["--no-preprocess"][..]] {
        let mut child = Command::new(binary())
            .args(extra)
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn coremax-solve");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(b"p cnf 3000000000 1\n1 0\n")
            .unwrap();
        let output = child.wait_with_output().expect("wait");
        assert_eq!(output.status.code(), Some(2), "{extra:?}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("parse error"), "{extra:?}: {stderr}");
    }
}

#[test]
fn tab_separated_header_solves() {
    // `p\tcnf` is a CNF header: the tab separates tokens as a space
    // does. The instance's two softs are jointly satisfiable.
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(binary())
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coremax-solve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"p\tcnf 2 2\n1 0\n-1 2 0\n")
        .unwrap();
    let output = child.wait_with_output().expect("wait");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let (status, cost) = parse_single(&String::from_utf8(output.stdout).expect("utf8"));
    assert_eq!((status.as_str(), cost), ("OPTIMAL", Some(0)));
}

#[test]
fn lone_empty_clause_verifies() {
    // One empty clause, soft as every CNF clause is: the optimum falsifies
    // it, and `--verify` checks the model that proves it.
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(binary())
        .args(["--verify", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coremax-solve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"p cnf 1 1\n0\n")
        .unwrap();
    let output = child.wait_with_output().expect("wait");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let (status, cost) = parse_single(&String::from_utf8(output.stdout).expect("utf8"));
    assert_eq!((status.as_str(), cost), ("OPTIMAL", Some(1)));
}

#[test]
fn batch_hard_abort_exits_30_not_10() {
    // Batch counterpart of the single-file distinction: an aborted
    // instance with no incumbent anywhere in the directory must exit
    // 30 (previously any abort exited 10, claiming a certified
    // incumbent that does not exist).
    let dir = std::env::temp_dir().join("coremax-batch-abort-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("a.cnf"),
        "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
    )
    .unwrap();
    std::fs::write(dir.join("b.cnf"), "p cnf 1 2\n1 0\n-1 0\n").unwrap();
    let output = Command::new(binary())
        .args(["--timeout-ms", "0", "--jobs", "2"])
        .arg(dir.display().to_string())
        .output()
        .expect("run batch with exhausted budget");
    assert_eq!(
        output.status.code(),
        Some(30),
        "batch hard abort must exit 30: {output:?}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    for line in stdout.lines().filter(|l| l.starts_with("r ")) {
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("r"));
        let _file = parts.next().expect("file column");
        assert_eq!(parts.next(), Some("UNKNOWN"), "{line}");
        assert_eq!(parts.next(), Some("-"), "no incumbent column: {line}");
        assert!(
            parts.next().is_some_and(|p| p.starts_with("lb=")),
            "aborted rows carry their certified lower bound: {line}"
        );
    }
    assert!(
        stdout.contains("aborted (2 without incumbent)"),
        "summary counts hard aborts: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn portfolio_flag_solves_single_instance() {
    let dir = std::env::temp_dir().join("coremax-portfolio-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("example2.cnf");
    std::fs::write(
        &path,
        "p cnf 4 8\n1 0\n-1 -2 0\n2 0\n-1 -3 0\n3 0\n-2 -3 0\n1 -4 0\n-1 4 0\n",
    )
    .unwrap();
    let output = Command::new(binary())
        .args(["--portfolio", "--jobs", "2", "--verify"])
        .arg(path.display().to_string())
        .output()
        .expect("run portfolio");
    assert!(output.status.success(), "portfolio run failed: {output:?}");
    let (status, cost) = parse_single(&String::from_utf8(output.stdout).expect("utf8"));
    assert_eq!(status, "OPTIMAL");
    assert_eq!(cost, Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
