(* A small, deterministic domain pool: static round-robin task→worker
   assignment (task i → worker i mod jobs), one [Domain.spawn] per
   worker, per-index result slots. [jobs <= 1] degenerates to a plain
   [List.map] on the calling domain. Exceptions from [f] are re-raised
   on the caller after all workers joined.

   Observability merges at the join barrier: each task's metrics delta
   (Trace.Metrics) is absorbed into the caller's cells and its span
   forest grafted under the caller's current span, in task index order,
   so merged totals and span trees are independent of [jobs]. *)

val max_jobs : int

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
