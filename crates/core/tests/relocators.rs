//! Relocation-semantics tests: link / pull / duplicate / stamp, meta-
//! reference retyping, and the one-message co-movement property (§2, §3.3).

mod common;

use std::sync::Arc;

use common::{cluster, move_msgs_during, teardown};
use fargo_core::{define_complet, ArrivalAction, FargoError, MarshalAction, Relocator, Value};

define_complet! {
    /// Holds a typed reference slot whose relocator the test retypes.
    pub complet Holder {
        state {
            dep: Option<fargo_core::CompletRef> = None,
            label: String = String::new(),
        }
        fn set_dep(&mut self, _ctx, args) {
            let d = args
                .first()
                .and_then(Value::as_ref_desc)
                .cloned()
                .ok_or_else(|| FargoError::InvalidArgument("need ref".into()))?;
            self.dep = Some(fargo_core::CompletRef::from_descriptor(d));
            Ok(Value::Null)
        }
        fn retype_dep(&mut self, ctx, args) {
            let t = args.first().and_then(Value::as_str).unwrap_or("link");
            let dep = self.dep.clone().ok_or_else(|| FargoError::App("no dep".into()))?;
            ctx.core().meta_ref(&dep).set_relocator(t)?;
            self.dep = Some(dep);
            Ok(Value::Null)
        }
        fn dep_id(&mut self, _ctx, _args) {
            Ok(self
                .dep
                .as_ref()
                .map(|d| Value::from(d.id().to_string()))
                .unwrap_or(Value::Null))
        }
        fn call_dep(&mut self, ctx, args) {
            let dep = self.dep.clone().ok_or_else(|| FargoError::App("no dep".into()))?;
            ctx.call(&dep, "print", args)
        }
    }
}

fn setup_holder_with_dep(
    relocator: &str,
    cores: &[fargo_core::Core],
) -> (fargo_core::BoundRef, fargo_core::BoundRef) {
    Holder::register(cores[0].registry());
    let dep = cores[0]
        .new_complet("Message", &[Value::from("dependency")])
        .unwrap();
    let holder = cores[0].new_complet("Holder", &[]).unwrap();
    holder
        .call("set_dep", &[Value::from(dep.complet_ref().descriptor())])
        .unwrap();
    holder
        .call("retype_dep", &[Value::from(relocator)])
        .unwrap();
    (holder, dep)
}

#[test]
fn link_reference_leaves_target_behind() {
    let (_net, _reg, cores) = cluster(2);
    let (holder, dep) = setup_holder_with_dep("link", &cores);
    holder.move_to("core1").unwrap();
    assert!(cores[1].hosts(holder.id()));
    assert!(cores[0].hosts(dep.id()), "link target must not move");
    // The moved holder still reaches its dependency remotely.
    assert_eq!(
        holder.call("call_dep", &[]).unwrap(),
        Value::from("dependency")
    );
    teardown(&cores);
}

#[test]
fn pull_reference_drags_target_along() {
    let (_net, _reg, cores) = cluster(2);
    let (holder, dep) = setup_holder_with_dep("pull", &cores);
    holder.move_to("core1").unwrap();
    assert!(cores[1].hosts(holder.id()));
    assert!(cores[1].hosts(dep.id()), "pull target must co-move");
    assert!(!cores[0].hosts(dep.id()));
    assert_eq!(
        holder.call("call_dep", &[]).unwrap(),
        Value::from("dependency")
    );
    teardown(&cores);
}

#[test]
fn move_bytes_show_what_travels() {
    // A pulled dependency rides in the holder's move stream; a linked one
    // stays home, so the holder travels alone.
    const DEP_STATE: usize = 50_000;
    let mut bytes = Vec::new();
    for relocator in ["link", "pull"] {
        let (net, _reg, cores) = cluster(2);
        let (holder, dep) = setup_holder_with_dep(relocator, &cores);
        dep.call("set_text", &[Value::from("x".repeat(DEP_STATE))])
            .unwrap();
        let link = || net.link_stats(cores[0].node(), cores[1].node()).bytes;
        let before = link();
        holder.move_to("core1").unwrap();
        bytes.push(link() - before);
        teardown(&cores);
    }
    assert!(
        bytes[1] > bytes[0] + DEP_STATE as u64 / 2,
        "pull ships the dependency, link does not: {bytes:?}"
    );
}

#[test]
fn pull_closure_moves_in_one_message() {
    // "all complets that should move as a result of the same movement
    // request are part of the same stream, thus only a single inter-Core
    // message is involved" (§3.3). The two-phase transfer adds one
    // constant-size MoveCommit: the closure still ships in exactly one
    // data-bearing message (the MovePrepare).
    let (_net, _reg, cores) = cluster(2);
    let (holder, _dep) = setup_holder_with_dep("pull", &cores);
    let msgs = move_msgs_during(&cores[0], || holder.move_to("core1").unwrap());
    assert_eq!(
        msgs, 2,
        "the whole pull closure must travel in one prepare + one commit"
    );
    teardown(&cores);
}

#[test]
fn pull_cycles_terminate() {
    // Two complets pulling each other must move once each, not loop.
    let (_net, reg, cores) = cluster(2);
    Holder::register(&reg);
    let a = cores[0].new_complet("Holder", &[]).unwrap();
    let b = cores[0].new_complet("Holder", &[]).unwrap();
    a.call("set_dep", &[Value::from(b.complet_ref().descriptor())])
        .unwrap();
    b.call("set_dep", &[Value::from(a.complet_ref().descriptor())])
        .unwrap();
    a.call("retype_dep", &[Value::from("pull")]).unwrap();
    b.call("retype_dep", &[Value::from("pull")]).unwrap();
    a.move_to("core1").unwrap();
    assert!(cores[1].hosts(a.id()));
    assert!(cores[1].hosts(b.id()));
    teardown(&cores);
}

#[test]
fn duplicate_reference_copies_target() {
    let (_net, _reg, cores) = cluster(2);
    let (holder, dep) = setup_holder_with_dep("duplicate", &cores);
    let orig_id = dep.id().to_string();
    holder.move_to("core1").unwrap();
    // Original stays at core0 and still answers.
    assert!(cores[0].hosts(dep.id()));
    assert_eq!(dep.call("print", &[]).unwrap(), Value::from("dependency"));
    // The holder now points at a *copy* living at core1.
    let new_id = holder.call("dep_id", &[]).unwrap();
    assert_ne!(
        new_id,
        Value::from(orig_id.as_str()),
        "must be re-bound to the copy"
    );
    assert_eq!(
        holder.call("call_dep", &[]).unwrap(),
        Value::from("dependency"),
        "the copy carries the original's state"
    );
    // The copy is independent: changing the original does not affect it.
    dep.call("set_text", &[Value::from("changed")]).unwrap();
    assert_eq!(
        holder.call("call_dep", &[]).unwrap(),
        Value::from("dependency")
    );
    teardown(&cores);
}

#[test]
fn stamp_reference_rebinds_to_local_equivalent() {
    let (_net, _reg, cores) = cluster(2);
    // A "printer" of the right type already lives at the destination.
    let local_printer = cores[0]
        .new_complet_at("core1", "Message", &[Value::from("core1 printer")])
        .unwrap();
    let (holder, dep) = setup_holder_with_dep("stamp", &cores);
    holder.move_to("core1").unwrap();
    // The reference now points at the destination's own instance.
    assert_eq!(
        holder.call("dep_id", &[]).unwrap(),
        Value::from(local_printer.id().to_string())
    );
    assert_eq!(
        holder.call("call_dep", &[]).unwrap(),
        Value::from("core1 printer")
    );
    // The original stayed put.
    assert!(cores[0].hosts(dep.id()));
    teardown(&cores);
}

#[test]
fn stamp_without_local_instance_keeps_old_target_by_default() {
    let (_net, _reg, cores) = cluster(2);
    let (holder, dep) = setup_holder_with_dep("stamp", &cores);
    holder.move_to("core1").unwrap();
    // No Message at core1: the lenient default keeps tracking the old one.
    assert_eq!(
        holder.call("dep_id", &[]).unwrap(),
        Value::from(dep.id().to_string())
    );
    assert_eq!(
        holder.call("call_dep", &[]).unwrap(),
        Value::from("dependency")
    );
    teardown(&cores);
}

#[test]
fn meta_ref_rejects_unknown_relocators() {
    let (_net, _reg, cores) = cluster(1);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    assert!(matches!(
        msg.meta().set_relocator("teleport"),
        Err(FargoError::UnknownRelocator(_))
    ));
    assert_eq!(msg.meta().relocator_name(), "link");
    teardown(&cores);
}

#[test]
fn meta_ref_reports_location() {
    let (_net, _reg, cores) = cluster(3);
    let msg = cores[0].new_complet("Message", &[]).unwrap();
    assert_eq!(msg.meta().location().unwrap(), "core0");
    msg.move_to("core2").unwrap();
    assert_eq!(msg.meta().location().unwrap(), "core2");
    teardown(&cores);
}

#[test]
fn user_defined_relocator_participates_in_movement() {
    // A "tether" that pulls like `pull` — registered by the application,
    // exercising the extension point of §3.3.
    struct Tether;
    impl Relocator for Tether {
        fn name(&self) -> &str {
            "tether"
        }
        fn marshal_action(&self) -> MarshalAction {
            MarshalAction::PullTarget
        }
        fn arrival_action(&self) -> ArrivalAction {
            ArrivalAction::Keep
        }
    }
    let (_net, _reg, cores) = cluster(2);
    cores[0].relocators().register(Arc::new(Tether));
    cores[1].relocators().register(Arc::new(Tether));
    let (holder, dep) = setup_holder_with_dep("tether", &cores);
    holder.move_to("core1").unwrap();
    assert!(cores[1].hosts(dep.id()), "tether must behave like pull");
    teardown(&cores);
}

#[test]
fn shared_relocator_registry_sees_registrations_everywhere() {
    let (_net, _reg, cores) = cluster(2);
    // Cores built via cluster() share one registry by default? They each
    // get their own default registry — verify explicit sharing works.
    let shared = cores[0].relocators();
    assert!(shared.contains("pull"));
    assert_eq!(shared.names().len(), 4);
    teardown(&cores);
}
