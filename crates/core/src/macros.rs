//! The `define_complet!` macro — FarGo-RS's stand-in for the FarGo
//! compiler.
//!
//! The original system ships a compiler that takes an anchor class and
//! generates its stub and tracker classes (§3.1, Figure 3). Rust has no
//! runtime bytecode generation, so the equivalent artifacts are produced
//! at compile time by this macro: the anchor struct, its method dispatch
//! table (`invoke`), its state (un)marshaling, optional lifecycle
//! callbacks, and a registry hook.

/// Defines a complet anchor type.
///
/// ```
/// use fargo_core::{define_complet, CompletRegistry, FargoError};
/// use fargo_wire::Value;
///
/// define_complet! {
///     /// The paper's Figure 3 example.
///     pub complet Message {
///         state {
///             text: String = String::new(),
///         }
///         init(&mut self, args) {
///             self.text = args.first().and_then(Value::as_str).unwrap_or("").to_owned();
///             Ok(())
///         }
///         fn print(&mut self, _ctx, _args) {
///             Ok(Value::from(self.text.as_str()))
///         }
///         fn set_text(&mut self, _ctx, args) {
///             self.text = args.first().and_then(Value::as_str).unwrap_or("").to_owned();
///             Ok(Value::Null)
///         }
///     }
/// }
///
/// let registry = CompletRegistry::new();
/// Message::register(&registry);
/// assert!(registry.contains("Message"));
/// ```
///
/// # Sections
///
/// * `stub <Name>` *(optional, after the anchor name)* — also generate a
///   typed stub struct whose methods mirror the anchor's (the artifact
///   the FarGo compiler emits): `pub complet Message stub MessageStub`.
/// * `state { field: Type = default, … }` — the complet's closure; every
///   field type must implement [`StateValue`](crate::StateValue).
/// * `init(&mut self, args) { … }` *(optional)* — constructor body
///   receiving the instantiation arguments (`&[Value]`); must evaluate to
///   `Result<(), FargoError>`.
/// * `lifecycle { fn post_arrival(&mut self, ctx) { … } … }` *(optional)*
///   — any of the four movement callbacks (§3.3).
/// * `fn name(&mut self, ctx, args) { … }` — anchor methods; each body
///   must evaluate to `Result<Value, FargoError>`. `ctx` is a
///   `&mut Ctx`, `args` a `&[Value]`.
#[macro_export]
macro_rules! define_complet {
    (
        $(#[$meta:meta])*
        $vis:vis complet $name:ident $(stub $stub:ident)? {
            state { $( $field:ident : $fty:ty = $default:expr ),* $(,)? }
            $( init(&mut $iself:ident, $iargs:ident) $init:block )?
            $( lifecycle { $( fn $lname:ident(&mut $lself:ident, $lctx:ident) $lbody:block )* } )?
            $( fn $method:ident(&mut $mself:ident, $ctx:pat_param, $margs:pat_param) $body:block )*
        }
    ) => {
        $crate::__fargo_typed_stub! { ($($stub)?) $vis [$($method)*] }

        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $name {
            $( pub $field : $fty, )*
        }

        impl $name {
            /// Creates an instance with default state.
            $vis fn new() -> Self {
                $name { $( $field : $default, )* }
            }

            /// Registers this complet type in a registry under its type
            /// name (`stringify!($name)`). Also registers the reviver
            /// (shell constructor) used by arrival, restore, and crash
            /// recovery, so `init` side effects run exactly once — at
            /// instantiation, never again when saved state is
            /// unmarshaled over a fresh shell.
            $vis fn register(registry: &$crate::CompletRegistry) {
                registry.register(stringify!($name), |args| {
                    #[allow(unused_mut)]
                    let mut complet = $name::new();
                    $( complet.__fargo_init(args)?; let _ = stringify!($iargs); )?
                    let _ = args;
                    Ok(Box::new(complet))
                });
                registry.register_reviver(stringify!($name), || Box::new($name::new()));
            }

            $(
                #[allow(clippy::ptr_arg)]
                fn __fargo_init(
                    &mut $iself,
                    $iargs: &[$crate::Value],
                ) -> ::std::result::Result<(), $crate::FargoError> $init
            )?

            $(
                #[allow(clippy::ptr_arg)]
                fn $method(
                    &mut $mself,
                    $ctx: &mut $crate::Ctx,
                    $margs: &[$crate::Value],
                ) -> ::std::result::Result<$crate::Value, $crate::FargoError> $body
            )*
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }

        impl $crate::Complet for $name {
            fn type_name(&self) -> &str {
                stringify!($name)
            }

            // `ctx`/`args` go unused when a complet declares no methods.
            #[allow(unused_variables)]
            fn invoke(
                &mut self,
                ctx: &mut $crate::Ctx,
                method: &str,
                args: &[$crate::Value],
            ) -> ::std::result::Result<$crate::Value, $crate::FargoError> {
                match method {
                    $( stringify!($method) => self.$method(ctx, args), )*
                    other => Err($crate::FargoError::NoSuchMethod {
                        complet_type: stringify!($name).to_owned(),
                        method: other.to_owned(),
                    }),
                }
            }

            fn marshal(&self) -> $crate::Value {
                static KEYS: $crate::__FieldKeys = $crate::__FieldKeys::new();
                $crate::__marshal_fields(
                    &KEYS,
                    [$( stringify!($field) ),*],
                    [$( $crate::StateValue::to_state(&self.$field) ),*],
                )
            }

            fn unmarshal(
                &mut self,
                state: $crate::Value,
            ) -> ::std::result::Result<(), $crate::FargoError> {
                $(
                    self.$field = $crate::StateValue::from_state(
                        state
                            .get(stringify!($field))
                            .cloned()
                            .unwrap_or($crate::Value::Null),
                    )?;
                )*
                let _ = &state;
                Ok(())
            }

            $( $(
                fn $lname(&mut $lself, $lctx: &mut $crate::Ctx) $lbody
            )* )?
        }
    };
}

/// Internal helper of [`define_complet!`]: one complet type's field names
/// as map keys, built on its first `marshal`. Not part of the public API.
#[doc(hidden)]
pub type __FieldKeys = std::sync::OnceLock<Vec<fargo_wire::Key>>;

/// Internal helper of [`define_complet!`]: the state map `marshal`
/// returns, `values` under `names` in declared order. Every capture of
/// the state (each acknowledged call, under a write-ahead log) clones the
/// type's keys rather than allocating a `String` per field. Not part of
/// the public API.
#[doc(hidden)]
pub fn __marshal_fields<const N: usize>(
    keys: &__FieldKeys,
    names: [&str; N],
    values: [fargo_wire::Value; N],
) -> fargo_wire::Value {
    let keys = keys.get_or_init(|| names.into_iter().map(fargo_wire::Key::from).collect());
    fargo_wire::Value::Map(keys.iter().cloned().zip(values).collect())
}

/// Internal helper of [`define_complet!`]: generates the typed stub when
/// a `stub <Name>` section was given. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __fargo_typed_stub {
    ( () $vis:vis [$($method:ident)*] ) => {};
    ( ($stub:ident) $vis:vis [$($method:ident)*] ) => {
        /// Typed stub: the anchor's interface over a bound reference
        /// (the artifact the FarGo compiler generates, §3.1).
        #[derive(Debug, Clone)]
        $vis struct $stub($crate::BoundRef);

        impl $stub {
            /// Wraps a bound reference whose target is this anchor type.
            $vis fn new(bound: $crate::BoundRef) -> Self {
                $stub(bound)
            }

            /// The underlying bound reference.
            $vis fn bound(&self) -> &$crate::BoundRef {
                &self.0
            }

            $(
                /// Typed forwarding of the anchor method of the same name
                /// (signature identical up to the implicit `ctx`).
                $vis fn $method(
                    &self,
                    args: &[$crate::Value],
                ) -> ::std::result::Result<$crate::Value, $crate::FargoError> {
                    self.0.call(stringify!($method), args)
                }
            )*
        }

        impl ::std::ops::Deref for $stub {
            type Target = $crate::BoundRef;
            fn deref(&self) -> &$crate::BoundRef {
                &self.0
            }
        }

        impl From<$crate::BoundRef> for $stub {
            fn from(bound: $crate::BoundRef) -> Self {
                $stub(bound)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::complet::Complet;
    use crate::CompletRegistry;
    use fargo_wire::Value;

    define_complet! {
        /// Test complet with all sections.
        pub complet Greeter {
            state {
                greeting: String = "hello".to_owned(),
                count: i64 = 0,
            }
            init(&mut self, args) {
                if let Some(g) = args.first().and_then(Value::as_str) {
                    self.greeting = g.to_owned();
                }
                Ok(())
            }
            fn greet(&mut self, _ctx, args) {
                self.count += 1;
                let who = args.first().and_then(Value::as_str).unwrap_or("world");
                Ok(Value::from(format!("{} {}", self.greeting, who)))
            }
            fn count(&mut self, _ctx, _args) {
                Ok(Value::I64(self.count))
            }
        }
    }

    define_complet! {
        /// Minimal complet: no init, no lifecycle, no methods.
        pub complet Empty {
            state {}
        }
    }

    #[test]
    fn generated_type_name_and_dispatch() {
        let g = Greeter::new();
        assert_eq!(g.type_name(), "Greeter");
        assert_eq!(g.greeting, "hello");
        // Dispatch without a live core: marshal/unmarshal only (invoke
        // needs a Ctx, exercised in integration tests).
        let state = g.marshal();
        assert_eq!(state.get("count").and_then(Value::as_i64), Some(0));
        let mut h = Greeter::new();
        h.count = 9;
        h.unmarshal(state).unwrap();
        assert_eq!(h.count, 0);
        assert_eq!(h.greeting, "hello");
    }

    #[test]
    fn registry_factory_runs_init() {
        let reg = CompletRegistry::new();
        Greeter::register(&reg);
        let c = reg.construct("Greeter", &[Value::from("shalom")]).unwrap();
        assert_eq!(
            c.marshal().get("greeting").and_then(Value::as_str),
            Some("shalom")
        );
    }

    #[test]
    fn reconstruct_skips_init_side_effects() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static INITS: AtomicU32 = AtomicU32::new(0);

        define_complet! {
            /// Regression: a constructor with side effects must run once
            /// per complet lifetime, not again on restore/arrival.
            pub complet InitCounter {
                state {
                    n: i64 = 0,
                }
                init(&mut self, _args) {
                    INITS.fetch_add(1, Ordering::SeqCst);
                    self.n = 1;
                    Ok(())
                }
            }
        }

        let reg = CompletRegistry::new();
        InitCounter::register(&reg);
        let c = reg.construct("InitCounter", &[]).unwrap();
        assert_eq!(INITS.load(Ordering::SeqCst), 1);
        let r = reg.reconstruct("InitCounter", c.marshal()).unwrap();
        assert_eq!(
            INITS.load(Ordering::SeqCst),
            1,
            "reviver must not re-run init"
        );
        assert_eq!(r.marshal().get("n").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn empty_complet_marshals_to_empty_map() {
        let reg = CompletRegistry::new();
        Empty::register(&reg);
        let c = reg.construct("Empty", &[]).unwrap();
        assert_eq!(c.marshal(), Value::map::<&str, _>([]));
    }

    #[test]
    fn unmarshal_rejects_bad_shapes() {
        let mut g = Greeter::new();
        let bad = Value::map([("greeting", Value::I64(3)), ("count", Value::I64(1))]);
        assert!(g.unmarshal(bad).is_err());
    }
}
