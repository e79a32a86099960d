//! Quickstart: a tour through every layer of the stack.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! 1. TELL frames into the proposition processor (fig 3-2);
//! 2. ASK open queries, and ASK through the deductive bridge the way
//!    the server does (the `inT` closure of a pinned KB version);
//! 3. check consistency;
//! 4. define a decision class + tool, execute a decision and inspect
//!    the dependency graph (fig 2-6).

use gkbms::{DecisionClass, DecisionRequest, Gkbms, ToolSpec};
use objectbase::query::{ask, ask_with_stats_version};
use objectbase::{frame::ObjectFrame, transform};
use telos::Kb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---------- 1. proposition + object processor ----------
    println!("== TELL frames (object transformer, fig 3-2) ==");
    let mut kb = Kb::new();
    let frames = ObjectFrame::parse_all(
        "TELL TDL_EntityClass isA Class end\n\
         TELL Person end\n\
         TELL Paper in TDL_EntityClass with attribute author : Person end\n\
         TELL Invitation in TDL_EntityClass isA Paper with\n\
           attribute sender : Person\n\
           constraint hasSender : $ forall i/Invitation i.sender defined $\n\
         end\n\
         TELL maria in Person end\n\
         TELL inv42 in Invitation with attribute sender : maria; author : maria end",
    )?;
    transform::tell_all(&mut kb, &frames)?;
    let invitation = kb.expect("Invitation")?;
    println!(
        "Invitation as a frame again:\n{}\n",
        transform::frame_of(&kb, invitation)?
    );

    // ---------- 2. queries ----------
    println!("== ASK (assertion language) ==");
    let senders = ask(&kb, "i", "Invitation", "i.sender = maria")?;
    println!("invitations sent by maria: {senders:?}");

    println!("\n== served ASK (deductive bridge, lemmas kept with the version) ==");
    let version = kb.version();
    let (papers, stats) = ask_with_stats_version(&version, version.now(), "p", "Paper", "true")?;
    println!("served ASK: instances of Paper (with inheritance) = {papers:?}");
    println!(
        "closure: {} derivations, {} index probes",
        stats.derivations, stats.index_probes
    );

    // ---------- 3. consistency ----------
    println!("\n== consistency checker ==");
    let (violations, stats) = objectbase::consistency::check_full(&kb);
    println!(
        "violations: {} (constraints evaluated: {})",
        violations.len(),
        stats.constraints_evaluated
    );

    // ---------- 4. the GKBMS ----------
    println!("\n== GKBMS: a documented, tool-aided decision (fig 2-6) ==");
    let mut g = Gkbms::new()?;
    g.define_decision_class(
        DecisionClass::new("TDL_MappingDec", gkbms::DecisionDimension::Mapping)
            .from_classes(&["TDL_EntityClass"])
            .to_classes(&["DBPL_Rel"])
            .precondition("x in TDL_EntityClass"),
    )?;
    g.register_tool(ToolSpec::new("TDL-DBPL-Mapper", true).executes("TDL_MappingDec"))?;
    g.register_object("Invitation", "TDL_EntityClass", "design.tdl#Invitation")?;

    println!("menu for `Invitation`:");
    for (dc, tools) in g.applicable_decisions("Invitation")? {
        println!("  {dc} (tools: {})", tools.join(", "));
    }

    g.execute(
        DecisionRequest::new("TDL_MappingDec", "mapInvitations", "you")
            .with_tool("TDL-DBPL-Mapper")
            .input("Invitation")
            .output("InvitationRel", "DBPL_Rel"),
    )?;
    println!("\ndependency graph:\n{}", g.dependency_graph().render());
    println!("status view:\n{}", g.status_view().render());
    println!(
        "explanation of InvitationRel:\n{}",
        g.explain("InvitationRel")?
    );

    println!("retracting the decision (selective backtracking)…");
    let affected = g.retract_decision("mapInvitations")?;
    println!("objects taken out: {affected:?}");
    println!("replayability: {:?}", g.replayability("mapInvitations")?);
    g.replay_decision("mapInvitations", "mapInvitations-v2")?;
    println!(
        "replayed; InvitationRel current again: {}",
        g.is_current("InvitationRel")
    );
    Ok(())
}
