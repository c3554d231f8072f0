(* The DNS-V pipeline facade (Figure 6): end-to-end verification of one
   engine version — dependency layers against their manual
   specifications, then the whole engine (with automatic summaries at
   the resolution layers) against the top-level specification, for a
   set of query types over one or many zone configurations.

   Every entry point is resource-governed (see lib/budget): checks
   terminate within their budget, query types are fault-isolated,
   inconclusive obligations retry under escalated budgets, and the
   verdict is three-valued. *)

module Rr = Dns.Rr
module Zone = Dns.Zone
module Name = Dns.Name
module Check = Refine.Check
module Layers = Refine.Layers
module Versions = Engine.Versions
module Builder = Engine.Builder
val all_qtypes : Rr.rtype list
type verdict = {
  version : string;
  zone_origin : string;
  layer_reports : Layers.layer_report list;
  reports : Check.report list;
  retries : int; (* budget escalations performed across all checks *)
  elapsed : float;
}

(* Total solver Unknowns the verdict's checks leaned on. *)
val unknowns : verdict -> int

(* Total certificate re-validation failures across the verdict. *)
val cert_failures : verdict -> int

(* Proved | Refuted (confirmed counterexamples win over missing
   budget) | Inconclusive with the first machine-readable reason. *)
val status : verdict -> verdict Budget.outcome

(* [clean] means *proved*: a verdict that leaned on a solver Unknown or
   stopped short of its budget is not clean. *)
val clean : verdict -> bool
val issues : verdict -> string list

(* Per-query-type fault isolation; retryable inconclusive checks are
   retried up to [retries] times under budgets [escalation]× larger.
   [jobs > 1] fans the query types out over a deterministic domain pool:
   each task charges a clone of the budget (per-task isolation under the
   shared absolute deadline) and runs on domain-local solver state,
   merged at the join barrier. Verdicts are identical to [jobs = 1]. *)
(* Drop the domain-local summary-store memo (used by [verify] to reuse
   module summaries across query types and repeated runs) and the
   persistent store's parsed-entry memos, so benchmarks and tests can
   measure from a cold start. *)
val clear_summary_memo : unit -> unit

(* [analysis] selects how the symbolic executor uses the static
   analysis: [Trust] (default) prunes statically-dead branches without
   solver calls, [Off] disables the consultation, [Distrust] makes all
   solver calls and cross-checks each static claim (chaos/soak mode).

   [store] threads the persistent verification store through every
   level — solver results, module summaries, layer verdicts, whole
   query-type reports — keyed under content-hash fingerprints so an
   edit invalidates exactly its cone of influence. The store
   accelerates, never decides: served entries are re-validated against
   their certificates and anything failing validation is evicted and
   recomputed, so verdict fingerprints are byte-identical with and
   without it. *)
val verify :
  ?qtypes:Check.Rr.rtype list ->
  ?mode:Check.mode ->
  ?check_layers:bool ->
  ?budget:Budget.t ->
  ?retries:int ->
  ?escalation:int ->
  ?jobs:int ->
  ?analysis:Analysis.policy ->
  ?store:Store.t -> Builder.config -> Zone.t -> verdict
type batch_outcome =
  | All_clean of int
  | Failed of { zone_index : int; verdict : verdict; }
  | Partial of {
      zones_done : int; (* zones proved clean before stopping *)
      inconclusive_zones : int;
      reason : Budget.reason;
    }
(* [verify_batch_run] without a journal. [jobs > 1] verifies zones in
   parallel waves of [jobs], merging the verdicts in zone order, so the
   outcome equals the sequential fold. *)
val verify_batch :
  ?qtypes:Check.Rr.rtype list ->
  ?count:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  ?retries:int ->
  ?jobs:int ->
  ?analysis:Analysis.policy ->
  ?store:Store.t -> Builder.config -> Name.t -> batch_outcome
(* ---------------- Journaled batch runs ---------------- *)

type item_status =
  | Item_proved
  | Item_refuted
  | Item_inconclusive of Budget.reason

type batch_item = {
  bi_index : int; (* zone index in generation order *)
  bi_status : item_status;
  bi_fingerprint : string; (* the zone verdict's [fingerprint] text *)
  bi_resumed : bool; (* replayed from the journal, not re-verified *)
}

type batch_run = {
  br_outcome : batch_outcome option;
      (* [None] only when replayed from a finalized journal whose
         refuting verdict cannot be rebuilt from its fingerprint *)
  br_items : batch_item list; (* in zone order *)
  br_fingerprint : string; (* item transcript + derived final line *)
  br_resumed_items : int;
  br_dropped_bytes : int; (* torn journal tail truncated on resume *)
}

(* [verify_batch] with a crash-safe write-ahead journal: each completed
   zone verdict is appended and flushed before the next zone starts, so
   a kill at any instant loses at most the zone in flight. With
   [~resume:true] the journal's intact prefix is replayed (not
   re-verified), any torn tail is truncated, the shared budget counters
   are restored, and verification continues from the first unrecorded
   zone — the resulting [br_fingerprint] is byte-identical to an
   uninterrupted run's. Resume fails (exception [Failure]) if the
   journal's header does not match this workload's identity. [on_start]
   fires on the calling domain just before a zone's verification is
   dispatched (never for replayed items); [on_item] observes each item
   as it completes or replays, in zone order. *)
val verify_batch_run :
  ?qtypes:Check.Rr.rtype list ->
  ?count:int ->
  ?seed:int ->
  ?budget:Budget.t ->
  ?retries:int ->
  ?jobs:int ->
  ?analysis:Analysis.policy ->
  ?store:Store.t ->
  ?journal:string ->
  ?resume:bool ->
  ?on_start:(int -> unit) ->
  ?on_item:(batch_item -> unit) ->
  Builder.config -> Name.t -> batch_run

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_string : verdict -> string

(* Deterministic rendering of everything semantically meaningful in a
   verdict/batch outcome, excluding wall-clock fields: two runs agree on
   fingerprints iff they agree on every verdict-relevant bit. *)
val fingerprint : verdict -> string
val fingerprint_batch : batch_outcome -> string
