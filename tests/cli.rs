//! Integration: the `zkperf` CLI binary driven end-to-end over real files.

use std::path::PathBuf;
use std::process::Command;

fn zkperf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zkperf"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkperf-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_accepts_and_rejects() {
    let dir = tmpdir("flow");
    let src = dir.join("square.zkc");
    std::fs::write(
        &src,
        "circuit square { public input x; private input s; output y = x * x + s - s; }",
    )
    .unwrap();
    let p = |n: &str| dir.join(n).to_string_lossy().into_owned();

    let ok = zkperf()
        .args(["compile", &p("square.zkc"), &p("c.r1cs")])
        .status()
        .unwrap();
    assert!(ok.success());
    assert!(zkperf()
        .args(["setup", &p("c.r1cs"), &p("c.zkey"), &p("c.vkey")])
        .status()
        .unwrap()
        .success());
    assert!(zkperf()
        .args([
            "witness",
            &p("square.zkc"),
            &p("c.wtns"),
            "--public",
            "6",
            "--private",
            "99",
        ])
        .status()
        .unwrap()
        .success());
    assert!(zkperf()
        .args(["prove", &p("c.zkey"), &p("c.r1cs"), &p("c.wtns"), &p("c.proof")])
        .status()
        .unwrap()
        .success());
    // y = 36 for x = 6.
    assert!(zkperf()
        .args(["verify", &p("c.vkey"), &p("c.proof"), "36", "6"])
        .status()
        .unwrap()
        .success());
    // Wrong output rejected with non-zero exit.
    assert!(!zkperf()
        .args(["verify", &p("c.vkey"), &p("c.proof"), "37", "6"])
        .status()
        .unwrap()
        .success());
    // info identifies the files.
    let out = zkperf().args(["info", &p("c.proof")]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("Groth16 proof"));
    // `setup` wrote the chunked key: the header, a section per query and
    // the fixed points.
    let out = zkperf().args(["info", &p("c.zkey")]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("Groth16 proving key (zkey)"), "{stdout}");
    assert!(stdout.contains("7 sections"), "{stdout}");
    // A key cut short is a typed error with a non-zero exit (a panic exits
    // 101), inside the preamble for `info` and inside a section for `prove`.
    let key = std::fs::read(dir.join("c.zkey")).unwrap();
    let (cut, r1cs, wtns, proof) = (p("cut.zkey"), p("c.r1cs"), p("c.wtns"), p("cut.proof"));
    let info: &[&str] = &["info", &cut];
    let prove: &[&str] = &["prove", &cut, &r1cs, &wtns, &proof];
    for (len, args) in [(10, info), (key.len() - 9, prove)] {
        std::fs::write(&cut, &key[..len]).unwrap();
        let out = zkperf().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let dir = tmpdir("bad");
    // No args → usage, exit 2.
    let status = zkperf().status().unwrap();
    assert_eq!(status.code(), Some(2));
    // Compile error surfaces with position info, non-zero exit.
    let src = dir.join("broken.zkc");
    std::fs::write(&src, "circuit broken { output y = nope; }").unwrap();
    let out = zkperf()
        .args(["compile", &src.to_string_lossy(), &dir.join("x.r1cs").to_string_lossy()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown signal"));
    // Feeding the wrong file kind is a format error, not a panic.
    std::fs::write(dir.join("junk.zkey"), b"zzzz not a container").unwrap();
    let out = zkperf()
        .args([
            "prove",
            &dir.join("junk.zkey").to_string_lossy(),
            &dir.join("junk.zkey").to_string_lossy(),
            &dir.join("junk.zkey").to_string_lossy(),
            &dir.join("out").to_string_lossy(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));
    let _ = std::fs::remove_dir_all(dir);
}
