//! Abstract syntax of the layout scripting language.

/// A parsed script: assignments and rules, in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
}

/// One top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `$name = expr`
    Assign {
        /// Variable name (without the `$`).
        name: String,
        /// Bound expression.
        value: Expr,
    },
    /// `on … do … end`
    Rule(Rule),
}

/// An event–action rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// What to listen for.
    pub event: EventSpec,
    /// Cores to install the listener at; empty means the engine's own
    /// attached Core (plus, for reference-rate events, the source's host).
    pub listen_at: Option<Expr>,
    /// Actions executed when the event fires.
    pub actions: Vec<Action>,
}

/// The event half of a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Event or profiling-service name (`shutdown`, `arrived`,
    /// `methodInvokeRate`, `completLoad`, …).
    pub name: String,
    /// Threshold for profiling events (`methodInvokeRate(3)`).
    pub threshold: Option<f64>,
    /// `true` for `below(x)` thresholds; default fires above the threshold.
    pub below: bool,
    /// `firedby $var`: bind the firing Core's name in the action scope.
    pub firedby: Option<String>,
    /// `from expr`: the reference's source complet (rate events).
    pub from: Option<Expr>,
    /// `to expr`: the reference's target complet (rate events).
    pub to: Option<Expr>,
    /// `towards expr`: the peer core (bandwidth/latency events).
    pub towards: Option<Expr>,
}

/// One action in a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `move <target> to <dest>`
    Move {
        /// What to move.
        target: Expr,
        /// Where to.
        dest: Expr,
    },
    /// Any other action name with positional arguments — dispatched to
    /// built-ins (`log`, `shutdown`) or user-registered handlers.
    Custom {
        /// The action name.
        name: String,
        /// Evaluated arguments.
        args: Vec<Expr>,
    },
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// String literal.
    Str(String),
    /// Number literal.
    Num(f64),
    /// `$name`
    Var(String),
    /// `$name[i]`
    Index(String, usize),
    /// `%n` — positional parameter (1-based).
    Param(usize),
    /// `completsIn <expr>` — all complets hosted at a Core.
    CompletsIn(Box<Expr>),
    /// `coreOf <expr>` — the Core currently hosting a complet.
    CoreOf(Box<Expr>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_compare_structurally() {
        let a = Expr::CompletsIn(Box::new(Expr::Var("core".into())));
        let b = Expr::CompletsIn(Box::new(Expr::Var("core".into())));
        assert_eq!(a, b);
        assert_ne!(a, Expr::Var("core".into()));
    }
}
