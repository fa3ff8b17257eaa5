//! Haley et al.'s two-part security requirements satisfaction argument
//! (Graydon §III-K): a formal *outer* argument — the eleven-line
//! natural-deduction proof — whose premises are discharged by informal
//! *inner* arguments in extended Toulmin notation.
//!
//! Run with: `cargo run --example security_requirements`

use casekit::core::dsl::parse_argument;
use casekit::core::semantics::probe_argument;
use casekit::core::toulmin::ToulminArgument;
use casekit::logic::nd::Proof;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The outer argument: the paper's exact proof.
    let proof = Proof::haley_example();
    println!("Outer (formal) argument:\n{proof}");
    proof.check()?;
    println!("mechanical check: PASS\n");

    // 2. The inner argument supporting premise 2 (`C -> H`): informal,
    //    in extended Toulmin notation, with its rebuttal on display.
    let inner = ToulminArgument::haley_inner_example();
    println!("Inner (informal) argument for a trust assumption:\n{inner}");

    // 3. Rushby-style probing of the outer premises: which are critical?
    //    The outer argument's skeleton as a case: `D -> H` over one
    //    formal leaf per premise (premise order is node-id order).
    let premises = ["I -> V", "C -> H", "Y -> V & C", "D -> Y"];
    let leaves: String = premises
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!("goal p{i} \"premise\" formal \"{p}\" {{ solution e{i} \"inner argument\" }}\n")
        })
        .collect();
    let outer = parse_argument(&format!(
        "argument \"haley-outer\" {{ goal g0 \"satisfied\" formal \"D -> H\" {{ {leaves} }} }}"
    ))?;
    let report = probe_argument(&outer).ok_or("the outer argument lacks a formal conclusion")?;
    println!("conclusion entailed: {}", report.entailed);
    for (i, premise) in premises.iter().enumerate() {
        let status = if report.critical.contains(&i) {
            "critical"
        } else {
            "idle — candidate red herring, or defence in depth"
        };
        println!("  premise {} (`{premise}`): {status}", i + 1);
    }

    // 4. The inner argument as a GSN-convertible graph.
    let graph = inner.to_argument("haley-inner");
    println!(
        "\ninner argument as graph: {} nodes, GSN-well-formed: {}",
        graph.len(),
        casekit::core::gsn::check(&graph).is_empty()
    );
    Ok(())
}
