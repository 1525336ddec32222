// Fixture: the driver shapes L008 accepts — acting on the decision
// stage's actions, naming the decision types without a path, mentions in
// comments and strings (ScaleDecision::ScaleOut), and test code.

use streambal_elastic::{ScaleAction, ScaleDecision, SplitDecision};

fn act(action: ScaleAction) -> usize {
    match action {
        ScaleAction::Widen { event, .. } => event.to,
        _ => 0,
    }
}

fn label(d: ScaleDecision) -> &'static str {
    let _ = "SplitDecision::Hold";
    d.name()
}

fn bound<T: Into<SplitDecision>>(d: T) -> SplitDecision {
    d.into()
}

#[cfg(test)]
mod tests {
    #[test]
    fn schedules_name_decisions_in_tests() {
        let _ = FixedSchedule::new([(1, ScaleDecision::ScaleOut)]);
    }
}
