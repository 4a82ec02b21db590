//! Factory for every policy compared in the paper, plus the zoo
//! contenders from `thermorl-policy` behind the same interface.

use thermorl_baselines::{FixedPolicy, GeConfig, GeQiu2011Controller};
use thermorl_control::ControlConfig;
use thermorl_policy::PolicyId;
use thermorl_sim::{NullController, ThermalController};

/// The policies the paper's evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Linux ondemand, default scheduling (Table 2 "Linux", Table 3
    /// "ondemand").
    LinuxOndemand,
    /// Linux powersave governor (Table 3).
    LinuxPowersave,
    /// Fixed userspace 2.4 GHz (Table 3).
    Linux24GHz,
    /// Fixed userspace 3.4 GHz (Table 3).
    Linux34GHz,
    /// The §3 motivational fixed user assignment (Figure 1).
    UserAssignment,
    /// Ge & Qiu DAC'11 \[7\].
    Ge2011,
    /// Ge & Qiu modified with the explicit app-switch signal (§6.2).
    Ge2011Modified,
    /// The proposed DAC'14 controller.
    Proposed,
    /// A zoo contender from `thermorl-policy`, driven through the
    /// [`Policy`](thermorl_policy::Policy) trait.
    Zoo(PolicyId),
}

impl Policy {
    /// The three intra-application policies of Table 2.
    pub fn table2() -> [Policy; 3] {
        [Policy::LinuxOndemand, Policy::Ge2011, Policy::Proposed]
    }

    /// The three inter-application policies of Figure 3.
    pub fn figure3() -> [Policy; 3] {
        [
            Policy::LinuxOndemand,
            Policy::Ge2011Modified,
            Policy::Proposed,
        ]
    }

    /// The six policies of Table 3 / Figure 9.
    pub fn table3() -> [Policy; 6] {
        [
            Policy::LinuxOndemand,
            Policy::LinuxPowersave,
            Policy::Linux24GHz,
            Policy::Linux34GHz,
            Policy::Ge2011,
            Policy::Proposed,
        ]
    }

    /// Short column label used in the result tables.
    pub fn label(self) -> &'static str {
        match self {
            Policy::LinuxOndemand => "Linux",
            Policy::LinuxPowersave => "powersave",
            Policy::Linux24GHz => "2.4GHz",
            Policy::Linux34GHz => "3.4GHz",
            Policy::UserAssignment => "user-assign",
            Policy::Ge2011 => "Ge [7]",
            Policy::Ge2011Modified => "Ge mod [7]",
            Policy::Proposed => "Proposed",
            Policy::Zoo(id) => id.label(),
        }
    }

    /// Parses a `--policy` CLI name: either a zoo policy id
    /// (`das_dac14`, `egreedy`, …) or one of the paper slugs above.
    ///
    /// # Errors
    ///
    /// Fails with the list of known names on an unknown one.
    pub fn parse(s: &str) -> Result<Policy, String> {
        if let Ok(id) = PolicyId::parse(s) {
            return Ok(Policy::Zoo(id));
        }
        let paper = [
            Policy::LinuxOndemand,
            Policy::LinuxPowersave,
            Policy::Linux24GHz,
            Policy::Linux34GHz,
            Policy::UserAssignment,
            Policy::Ge2011,
            Policy::Ge2011Modified,
            Policy::Proposed,
        ];
        paper.into_iter().find(|p| p.slug() == s).ok_or_else(|| {
            let zoo: Vec<&str> = PolicyId::ALL.iter().map(|p| p.as_str()).collect();
            let slugs: Vec<&str> = paper.iter().map(|p| p.slug()).collect();
            format!(
                "unknown policy {s:?}; zoo: {}; paper: {}",
                zoo.join(", "),
                slugs.join(", ")
            )
        })
    }

    /// Stable key segment used in campaign job keys (lowercase, no
    /// spaces — changing these invalidates existing checkpoints).
    pub fn slug(self) -> &'static str {
        match self {
            Policy::LinuxOndemand => "linux",
            Policy::LinuxPowersave => "powersave",
            Policy::Linux24GHz => "2.4ghz",
            Policy::Linux34GHz => "3.4ghz",
            Policy::UserAssignment => "user-assign",
            Policy::Ge2011 => "ge",
            Policy::Ge2011Modified => "ge-mod",
            Policy::Proposed => "proposed",
            Policy::Zoo(id) => id.as_str(),
        }
    }

    /// Instantiates the controller with the given seed.
    pub fn build(self, seed: u64) -> Box<dyn ThermalController> {
        match self {
            Policy::LinuxOndemand => Box::new(NullController::default()),
            Policy::LinuxPowersave => Box::new(FixedPolicy::powersave()),
            Policy::Linux24GHz => Box::new(FixedPolicy::userspace("linux-2.4GHz", 2)),
            Policy::Linux34GHz => Box::new(FixedPolicy::userspace("linux-3.4GHz", 5)),
            Policy::UserAssignment => Box::new(FixedPolicy::user_assignment()),
            Policy::Ge2011 => Box::new(GeQiu2011Controller::new(GeConfig::default(), seed)),
            Policy::Ge2011Modified => {
                Box::new(GeQiu2011Controller::modified(GeConfig::default(), seed))
            }
            Policy::Proposed => PolicyId::DasDac14.build(ControlConfig::default(), seed),
            Policy::Zoo(id) => id.build(ControlConfig::default(), seed),
        }
    }
}

/// Strips a `--policy a,b,c` flag from `args` and parses the list.
/// Returns `None` when the flag is absent (callers fall back to their
/// default policy set).
///
/// # Errors
///
/// Fails on a missing or empty value, or an unknown policy name.
pub fn policy_flag(args: &mut Vec<String>) -> Result<Option<Vec<Policy>>, String> {
    let Some(i) = args.iter().position(|a| a == "--policy") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--policy needs a comma-separated list of policy names".into());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    let policies: Vec<Policy> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(Policy::parse)
        .collect::<Result<_, _>>()?;
    if policies.is_empty() {
        return Err("--policy list is empty".into());
    }
    Ok(Some(policies))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_policies() -> Vec<Policy> {
        let mut all = vec![
            Policy::LinuxOndemand,
            Policy::LinuxPowersave,
            Policy::Linux24GHz,
            Policy::Linux34GHz,
            Policy::UserAssignment,
            Policy::Ge2011,
            Policy::Ge2011Modified,
            Policy::Proposed,
        ];
        all.extend(PolicyId::ALL.into_iter().map(Policy::Zoo));
        all
    }

    #[test]
    fn every_policy_builds() {
        for p in all_policies() {
            let c = p.build(1);
            assert!(!c.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn slugs_are_unique_and_key_safe() {
        let all = all_policies();
        let slugs: std::collections::HashSet<&str> = all.iter().map(|p| p.slug()).collect();
        assert_eq!(slugs.len(), all.len(), "slugs must be distinct");
        for s in slugs {
            assert!(!s.contains(' ') && !s.contains('/') && !s.contains('\n'));
        }
    }

    #[test]
    fn parse_round_trips_every_slug_and_rejects_unknown() {
        for p in all_policies() {
            assert_eq!(Policy::parse(p.slug()), Ok(p), "slug {:?}", p.slug());
        }
        let err = Policy::parse("warp-core").unwrap_err();
        assert!(err.contains("unknown policy"), "{err}");
        assert!(err.contains("ucb1") && err.contains("proposed"), "{err}");
    }

    #[test]
    fn policy_flag_strips_and_parses() {
        let mut args: Vec<String> = ["--resume", "--policy", "ucb1,proposed", "--quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let got = policy_flag(&mut args).expect("parse");
        assert_eq!(
            got,
            Some(vec![Policy::Zoo(PolicyId::Ucb1), Policy::Proposed])
        );
        assert_eq!(args, vec!["--resume".to_string(), "--quiet".to_string()]);

        let mut none: Vec<String> = vec!["--quiet".into()];
        assert_eq!(policy_flag(&mut none).expect("parse"), None);

        let mut bad: Vec<String> = vec!["--policy".into(), "warp-core".into()];
        assert!(policy_flag(&mut bad).is_err());
        let mut missing: Vec<String> = vec!["--policy".into()];
        assert!(policy_flag(&mut missing).is_err());
    }

    #[test]
    fn policy_sets_have_expected_sizes() {
        assert_eq!(Policy::table2().len(), 3);
        assert_eq!(Policy::figure3().len(), 3);
        assert_eq!(Policy::table3().len(), 6);
    }
}
