(** The injection engine: runs one test of a simulated target with one
    fault armed, and reports the outcome.

    Execution semantics: the engine walks the test's call trace counting
    calls to the faulty function. When the [call_number]-th call is
    reached, the callsite's error-handling behaviour for the injected errno
    decides what happens:

    - [Handled]: recovery code runs (covering its recovery blocks) and the
      test continues to completion — it still passes;
    - [Test_fails]: the operation aborts cleanly, the test reports failure;
      recovery blocks are covered, the rest of the trace is not;
    - [Crash]: the process dies at the injection point (after entering
      recovery if the bug is in recovery code);
    - [Hang]: no further progress; the run is charged a timeout.

    If the fault never triggers (call number 0, too few calls, or function
    never called), the test runs to completion and passes. *)

type nondeterminism = {
  rng : Afex_stats.Rng.t;
  dodge_probability : float;
      (** chance that a triggered fault's effect is weakened by scheduling
          (crash observed as clean failure, clean failure as pass);
          models the run-to-run variance that impact precision (§5)
          quantifies. 0 = fully deterministic. *)
}

val hang_timeout_factor : float
(** Multiple of the test's nominal duration charged for a hung run. *)

val cover : Afex_stats.Bitset.t -> int array -> unit
(** [cover coverage blocks] sets every block of [blocks] in [coverage].
    @raise Invalid_argument if a block is out of range. *)

val cover_calls :
  Afex_simtarget.Target.t -> int array -> Afex_stats.Bitset.t -> int -> int -> unit
(** [cover_calls target trace coverage i last] covers the blocks of the
    calls at positions [i] to [last] of [trace] (none when [i > last]), a
    run of one call site at a time: every call of a run covers the same
    blocks. *)

val reaction :
  ?nondet:nondeterminism ->
  Afex_simtarget.Callsite.t ->
  errno:string ->
  Afex_simtarget.Behavior.reaction
(** The site's reaction to an injected [errno], weakened with
    [dodge_probability] when [nondet] is given. *)

val run :
  ?nondet:nondeterminism -> Afex_simtarget.Target.t -> Fault.t -> Outcome.t
(** @raise Invalid_argument if the fault's [test_id] is out of range. *)

val baseline : Afex_simtarget.Target.t -> int -> Outcome.t
(** [baseline target test_id] runs a test without injection. *)

val suite_coverage : Afex_simtarget.Target.t -> Afex_stats.Bitset.t
(** Coverage of the full suite without injection. *)
