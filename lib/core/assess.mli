(** Impact-precision assessment of a result set (§5).

    After a session, AFEX re-runs its most interesting faults n times and
    attaches 1/Var(impact) to each, so developers can start from the
    failure scenarios that reproduce deterministically. *)

val impact_precision :
  Executor.t ->
  sensor:Afex_injector.Sensor.t ->
  trials:int ->
  Afex_faultspace.Scenario.t ->
  Afex_quality.Precision.t
(** Re-run one scenario [trials] times; impact is the sensor score of the
    raw outcome (coverage novelty excluded — it is session state, not a
    property of the fault). *)

val top_faults :
  Executor.t ->
  sensor:Afex_injector.Sensor.t ->
  trials:int ->
  n:int ->
  Session.result ->
  (Test_case.t * Afex_quality.Precision.t) list
(** Precision of the [n] highest-impact faults of a session, highest
    impact first. *)
