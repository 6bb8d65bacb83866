/// The order nets are attempted in. The paper routes in definition
/// order and notes in §7 that "it is probably better to construct a
/// certain criterion for selecting the next net to be routed" — these
/// are the obvious criteria, benchmarked in the ablation suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetOrder {
    /// Net-list definition order (the paper's behaviour).
    #[default]
    Definition,
    /// Widest nets first: many-pin nets route while the plane is
    /// still empty.
    MostPinsFirst,
    /// Narrow nets first.
    FewestPinsFirst,
}

impl std::str::FromStr for NetOrder {
    type Err = String;

    /// Parses the `def|most|few` spelling of the command line and of
    /// `netart serve` requests.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "def" => Ok(NetOrder::Definition),
            "most" => Ok(NetOrder::MostPinsFirst),
            "few" => Ok(NetOrder::FewestPinsFirst),
            other => Err(format!("unknown net order `{other}` (expected def, most or few)")),
        }
    }
}

use crate::{Budget, CancelToken};

/// Routing options, mirroring the `eureka` command line of Appendix F.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteConfig {
    /// Tracks between the diagram bounding box and the routing plane
    /// border on each side `[left, right, down, up]`. The `-l`, `-r`,
    /// `-d`, `-u` flags of Appendix F fix a border *at* the box
    /// (margin 2: the border sits one track beyond the single remaining
    /// routing track), forcing outgoing nets to hug the box edge.
    pub margins: [i32; 4],
    /// Enable claimpoints (§5.7). On by default; the paper reports a
    /// ~75% drop in unroutable nets from this extension.
    pub claimpoints: bool,
    /// Retry nets that failed in the first pass after lifting every
    /// remaining claimpoint (§5.7, figure 6.14/6.15 discussion).
    pub retry_failed: bool,
    /// Swap the tie-break order (`-s`): prefer minimum wire length over
    /// minimum crossovers among the minimum-bend paths.
    pub swap_tiebreak: bool,
    /// The order nets are attempted in (§7 extension).
    pub order: NetOrder,
    /// Per-net search budget. Unlimited by default, so the search runs
    /// to exhaustion exactly as the paper describes.
    pub budget: Budget,
    /// Run the salvage cascade on nets the main passes could not
    /// route: rip-up-and-retry with an escalated budget, then the Lee
    /// fallback, then an explicit ghost wire. On by default; it only
    /// engages after a net has already failed, so clean runs are
    /// untouched.
    pub salvage: bool,
    /// Cooperative cancellation for the whole routing run: every
    /// per-net meter checks the token on the deadline-poll cadence,
    /// and a cancelled run stops attempting (and salvaging) further
    /// nets. `None` (the default) means not cancellable.
    pub cancel: Option<CancelToken>,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            margins: [4; 4],
            claimpoints: true,
            retry_failed: true,
            swap_tiebreak: false,
            order: NetOrder::Definition,
            budget: Budget::UNLIMITED,
            salvage: true,
            cancel: None,
        }
    }
}

impl RouteConfig {
    /// The default configuration.
    pub fn new() -> Self {
        RouteConfig::default()
    }

    /// Disables claimpoints (for the §5.7 ablation).
    pub fn without_claimpoints(mut self) -> Self {
        self.claimpoints = false;
        self
    }

    /// Disables the retry pass.
    pub fn without_retry(mut self) -> Self {
        self.retry_failed = false;
        self
    }

    /// Swaps the tie-break order (`-s`).
    pub fn with_swapped_tiebreak(mut self) -> Self {
        self.swap_tiebreak = true;
        self
    }

    /// Sets a uniform plane margin.
    pub fn with_margin(mut self, tracks: i32) -> Self {
        self.margins = [tracks.max(1); 4];
        self
    }

    /// Fixes the left border at the diagram box (`-l`).
    pub fn with_fixed_left(mut self) -> Self {
        self.margins[0] = 2;
        self
    }

    /// Fixes the right border at the diagram box (`-r`).
    pub fn with_fixed_right(mut self) -> Self {
        self.margins[1] = 2;
        self
    }

    /// Fixes the lower border at the diagram box (`-d`).
    pub fn with_fixed_down(mut self) -> Self {
        self.margins[2] = 2;
        self
    }

    /// Fixes the upper border at the diagram box (`-u`).
    pub fn with_fixed_up(mut self) -> Self {
        self.margins[3] = 2;
        self
    }

    /// Sets the net selection order (§7 extension).
    pub fn with_order(mut self, order: NetOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the per-net search budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Disables the salvage cascade: failed nets are reported and left
    /// unrouted, as in the paper.
    pub fn without_salvage(mut self) -> Self {
        self.salvage = false;
        self
    }

    /// Attaches a cooperative cancellation token (watchdogs, batch
    /// drain). Cancellation makes in-flight searches breach with
    /// [`crate::BudgetBreach::Cancelled`] and skips remaining nets.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RouteConfig::default();
        assert_eq!(c.margins, [4; 4]);
        assert!(c.claimpoints);
        assert!(c.retry_failed);
        assert!(!c.swap_tiebreak);
        assert!(c.budget.is_unlimited());
        assert!(c.salvage);
        assert_eq!(RouteConfig::new(), c);
    }

    #[test]
    fn budget_and_salvage_builders() {
        let c = RouteConfig::new()
            .with_budget(Budget::new().with_node_limit(500))
            .without_salvage();
        assert_eq!(c.budget.nodes, Some(500));
        assert!(!c.salvage);
    }

    #[test]
    fn builders() {
        let c = RouteConfig::new()
            .without_claimpoints()
            .without_retry()
            .with_swapped_tiebreak()
            .with_margin(7)
            .with_fixed_left()
            .with_fixed_up();
        assert!(!c.claimpoints && !c.retry_failed && c.swap_tiebreak);
        assert_eq!(c.margins, [2, 7, 7, 2]);
    }

    #[test]
    fn margin_clamped_to_one() {
        assert_eq!(RouteConfig::new().with_margin(0).margins, [1; 4]);
    }

    #[test]
    fn order_defaults_to_definition() {
        assert_eq!(RouteConfig::new().order, NetOrder::Definition);
        let c = RouteConfig::new().with_order(NetOrder::MostPinsFirst);
        assert_eq!(c.order, NetOrder::MostPinsFirst);
    }

    #[test]
    fn net_order_parses_def_most_few() {
        assert_eq!("def".parse(), Ok(NetOrder::Definition));
        assert_eq!("most".parse(), Ok(NetOrder::MostPinsFirst));
        assert_eq!("few".parse(), Ok(NetOrder::FewestPinsFirst));
        assert!("fifo".parse::<NetOrder>().is_err());
    }
}
