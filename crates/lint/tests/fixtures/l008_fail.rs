// Fixture: a driver matching on policy decisions itself.

fn decide(policy: &mut dyn ElasticityPolicy, obs: &IntervalObservation) -> bool {
    match policy.decide(obs) {
        ScaleDecision::ScaleOut => true,
        // A guard copied from the decision stage.
        ScaleDecision::ScaleIn if obs.n_dead == 0 => true,
        _ => false,
    }
}

fn split(policy: &mut dyn SplitPolicy, obs: &SplitObservation) -> Option<u64> {
    match policy.decide(obs) {
        SplitDecision::Split { key, .. } => Some(key),
        _ => None,
    }
}
