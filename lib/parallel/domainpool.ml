(* A small, deterministic domain pool for the verification pipeline.

   Design constraints, in order:

   - **Determinism.** Task→worker assignment is static round-robin
     (task i runs on worker i mod jobs, in index order within a worker),
     never work-stealing: domain-local state (solver caches, fault-plan
     counters, statistics) then sees the same deterministic sequence of
     work for a given (tasks, jobs) pair on every run, which is what
     keeps injected fault schedules replayable and verdicts identical
     between runs.
   - **Isolation.** Each worker is one [Domain.spawn]; all mutable
     verifier state is domain-local (DLS), so workers share nothing.
     Results land in per-index slots — no locks, no contention.
   - **Degenerate case is free.** [jobs <= 1] (or a single task) runs
     the plain [List.map] on the calling domain: no spawn, bit-for-bit
     the sequential pipeline.

   Exceptions raised by [f] are captured per task and re-raised on the
   calling domain for the lowest failing task index, after every worker
   has been joined. *)

let max_jobs = 64

let clamp_jobs ~ntasks jobs = max 1 (min jobs (min max_jobs ntasks))

(* [map ~jobs f tasks] = [List.map f tasks], fanned out over [jobs]
   domains. *)
let map ~jobs (f : 'a -> 'b) (tasks : 'a list) : 'b list =
  let ntasks = List.length tasks in
  let jobs = clamp_jobs ~ntasks jobs in
  if jobs <= 1 then List.map f tasks
  else begin
    let tasks = Array.of_list tasks in
    (* Each slot carries the task's observability payload alongside its
       result: the span forest the task rooted on its worker domain and
       the metrics delta it produced there (worker domains start with
       zero registry cells, so a snapshot diff is exactly the task's
       contribution). *)
    let results :
        ( 'b * Trace.forest * Trace.Metrics.snapshot,
          exn * Printexc.raw_backtrace * Trace.Metrics.snapshot )
        result
        option
        array =
      Array.make ntasks None
    in
    let worker w () =
      let i = ref w in
      while !i < ntasks do
        (results.(!i) <-
           (let m0 = Trace.Metrics.snapshot () in
            let delta () = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
            match Trace.capture (fun () -> f tasks.(!i)) with
            | v, forest -> Some (Ok (v, forest, delta ()))
            | exception e ->
                Some (Error (e, Printexc.get_raw_backtrace (), delta ()))));
        i := !i + jobs
      done
    in
    let domains = Array.init jobs (fun w -> Domain.spawn (worker w)) in
    Array.iter Domain.join domains;
    (* The join barrier is the single merge point: fold every task's
       metrics delta into the caller's cells and graft its span forest
       under the caller's current span, in task index order — so the
       merged totals and the span tree are independent of [jobs] and of
       which worker ran what. Failed tasks merge their metrics too (the
       work they did happened); only then is the lowest failing index
       re-raised. *)
    Array.iter
      (function
        | Some (Ok (_, forest, delta)) ->
            Trace.Metrics.absorb delta;
            Trace.graft forest
        | Some (Error (_, _, delta)) -> Trace.Metrics.absorb delta
        | None -> assert false)
      results;
    Array.to_list results
    |> List.map (function
         | Some (Ok (v, _, _)) -> v
         | Some (Error (e, bt, _)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end
