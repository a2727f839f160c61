//! JSON serialization of the online advisor's history for trace files.
//!
//! The advisor's in-memory event log is a bounded ring
//! ([`OnlineAdvisor::events`](crate::OnlineAdvisor::events)); the *full*
//! history survives only when a [`cloudia_obs::RunRecorder`] is attached
//! and every [`OnlineEvent`] and [`EpochSummary`] is streamed to disk as
//! it happens. This module owns the event → [`Json`] mapping that stream
//! uses, so a trace consumer sees one stable shape per variant:
//!
//! ```json
//! {"t":"event","seq":17,"p":{"kind":"resolve","epoch":4,"moved":2,...}}
//! {"t":"epoch","seq":18,"p":{"epoch":4,"true_cost":12.5,...}}
//! ```
//!
//! Every event payload carries a `kind` discriminant (snake_case variant
//! name) and an `epoch`; the remaining fields mirror the variant's
//! fields by name. Floats print via the shared
//! [`cloudia_obs::Json`] encoder (integral values without a trailing
//! `.0`), so identical runs serialize to identical bytes — the
//! determinism contract the trace tests pin down.

use cloudia_obs::Json;

use crate::advisor::{EpochSummary, OnlineEvent};
use crate::detect::Drift;
use crate::stats::LinkChange;

/// Stable lowercase name of a drift direction.
pub fn drift_name(drift: Drift) -> &'static str {
    match drift {
        Drift::None => "none",
        Drift::Up => "up",
        Drift::Down => "down",
    }
}

/// A [`LinkChange`] as a JSON object (field names match the struct).
pub fn link_change_to_json(c: &LinkChange) -> Json {
    Json::obj()
        .field("src", c.src)
        .field("dst", c.dst)
        .field("drift", drift_name(c.drift))
        .field("mean", c.mean)
        .field("baseline", c.baseline)
        .field("dark", c.dark)
        .field("loss_rate", c.loss_rate)
}

/// An [`OnlineEvent`] as a JSON object tagged with a `kind`
/// discriminant; see the module docs for the shape contract.
pub fn event_to_json(event: &OnlineEvent) -> Json {
    match event {
        OnlineEvent::Epoch { epoch, at_hours, round_trips, est_cost, true_cost } => Json::obj()
            .field("kind", "epoch")
            .field("epoch", *epoch)
            .field("at_hours", *at_hours)
            .field("round_trips", *round_trips)
            .field("est_cost", *est_cost)
            .field("true_cost", *true_cost),
        OnlineEvent::Change { epoch, change, on_deployed_link } => Json::obj()
            .field("kind", "change")
            .field("epoch", *epoch)
            .field("change", link_change_to_json(change))
            .field("on_deployed_link", *on_deployed_link),
        OnlineEvent::Resolve { epoch, freed, moved, est_gain, solve_seconds, accepted } => {
            let freed: Vec<Json> = freed.iter().map(|&n| Json::from(n)).collect();
            Json::obj()
                .field("kind", "resolve")
                .field("epoch", *epoch)
                .field("freed", freed)
                .field("moved", *moved)
                .field("est_gain", *est_gain)
                .field("solve_seconds", *solve_seconds)
                .field("accepted", *accepted)
        }
        OnlineEvent::Migrate { epoch, moved, true_cost_before, true_cost_after } => Json::obj()
            .field("kind", "migrate")
            .field("epoch", *epoch)
            .field("moved", *moved)
            .field("true_cost_before", *true_cost_before)
            .field("true_cost_after", *true_cost_after),
        OnlineEvent::PoolResize { epoch, from, to, rate } => Json::obj()
            .field("kind", "pool_resize")
            .field("epoch", *epoch)
            .field("from", *from)
            .field("to", *to)
            .field("rate", *rate),
        OnlineEvent::SweepPruned { epoch, dropped_pairs, saved_round_trips } => Json::obj()
            .field("kind", "sweep_pruned")
            .field("epoch", *epoch)
            .field("dropped_pairs", *dropped_pairs)
            .field("saved_round_trips", *saved_round_trips),
        OnlineEvent::LinkDark { epoch, src, dst, loss_rate, confirmed } => Json::obj()
            .field("kind", "link_dark")
            .field("epoch", *epoch)
            .field("src", *src)
            .field("dst", *dst)
            .field("loss_rate", *loss_rate)
            .field("confirmed", *confirmed),
        OnlineEvent::Evacuate { epoch, instances, moved } => {
            let instances: Vec<Json> = instances.iter().map(|&n| Json::from(n)).collect();
            Json::obj()
                .field("kind", "evacuate")
                .field("epoch", *epoch)
                .field("instances", instances)
                .field("moved", *moved)
        }
        OnlineEvent::SpotCheck { epoch, src, dst, mean, confirmed } => Json::obj()
            .field("kind", "spot_check")
            .field("epoch", *epoch)
            .field("src", *src)
            .field("dst", *dst)
            .field("mean", *mean)
            .field("confirmed", *confirmed),
        OnlineEvent::DeepProbe { epoch, pairs, ks } => Json::obj()
            .field("kind", "deep_probe")
            .field("epoch", *epoch)
            .field("pairs", *pairs)
            .field("ks", *ks),
        OnlineEvent::Held { epoch, error } => Json::obj()
            .field("kind", "held")
            .field("epoch", *epoch)
            .field("error", error.to_string()),
    }
}

/// An [`EpochSummary`] as a JSON object (field names match the struct).
pub fn epoch_summary_to_json(s: &EpochSummary) -> Json {
    Json::obj()
        .field("epoch", s.epoch)
        .field("at_hours", s.at_hours)
        .field("est_cost", s.est_cost)
        .field("true_cost", s.true_cost)
        .field("triggered", s.triggered)
        .field("moved", s.moved)
        .field("round_trips", s.round_trips)
        .field("saved_round_trips", s.saved_round_trips)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_variant_serializes_with_kind_and_epoch() {
        let change = LinkChange {
            src: 0,
            dst: 1,
            drift: Drift::Up,
            mean: 2.5,
            baseline: 1.5,
            dark: false,
            loss_rate: 0.0,
        };
        let events = [
            OnlineEvent::Epoch {
                epoch: 1,
                at_hours: 2.0,
                round_trips: 30,
                est_cost: 4.0,
                true_cost: 4.5,
            },
            OnlineEvent::Change { epoch: 1, change, on_deployed_link: true },
            OnlineEvent::Resolve {
                epoch: 2,
                freed: vec![3, 4],
                moved: 2,
                est_gain: 0.5,
                solve_seconds: 0.1,
                accepted: true,
            },
            OnlineEvent::Migrate {
                epoch: 2,
                moved: 2,
                true_cost_before: 5.0,
                true_cost_after: 4.0,
            },
            OnlineEvent::PoolResize { epoch: 3, from: 10, to: 8, rate: 0.05 },
            OnlineEvent::SweepPruned { epoch: 3, dropped_pairs: 6, saved_round_trips: 24 },
            OnlineEvent::LinkDark { epoch: 4, src: 1, dst: 2, loss_rate: 1.0, confirmed: true },
            OnlineEvent::Evacuate { epoch: 4, instances: vec![1], moved: 1 },
            OnlineEvent::SpotCheck { epoch: 5, src: 0, dst: 1, mean: 2.2, confirmed: false },
            OnlineEvent::DeepProbe { epoch: 6, pairs: 2, ks: 9 },
            OnlineEvent::Held {
                epoch: 7,
                error: cloudia_core::CostError::Value { i: 0, j: 1, value: f64::NAN },
            },
        ];
        let mut kinds = Vec::new();
        for e in &events {
            let j = event_to_json(e);
            let kind = j.get("kind").and_then(Json::as_str).expect("kind present");
            assert!(j.get("epoch").and_then(Json::as_u64).is_some(), "{kind}: epoch missing");
            // The payload survives an encode → parse round trip.
            let back = Json::parse(&j.encode()).expect("valid JSON");
            assert_eq!(back.get("kind").and_then(Json::as_str), Some(kind));
            kinds.push(kind.to_string());
        }
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len(), "kind discriminants must be distinct");
    }

    #[test]
    fn epoch_summary_round_trips() {
        let s = EpochSummary {
            epoch: 7,
            at_hours: 14.0,
            est_cost: 3.25,
            true_cost: 3.5,
            triggered: true,
            moved: 1,
            round_trips: 120,
            saved_round_trips: 40,
        };
        let j = epoch_summary_to_json(&s);
        let back = Json::parse(&j.encode()).unwrap();
        assert_eq!(back.get("epoch").and_then(Json::as_u64), Some(7));
        assert_eq!(back.get("true_cost").and_then(Json::as_f64), Some(3.5));
        assert_eq!(back.get("triggered").and_then(Json::as_bool), Some(true));
    }
}
