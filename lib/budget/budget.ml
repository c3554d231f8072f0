(* Resource budgets and three-valued verification outcomes.

   The paper's portability claim (§7: re-verifying a new engine version
   in under a person-week) presumes the verifier itself never hangs or
   silently under-reports. This module is the discipline that makes that
   true: every checking entry point threads one [Budget.t] — a
   wall-clock deadline, a solver-call budget, a symbolic-execution path
   cap, and interpreter/executor fuel — and terminates within it,
   reporting [Inconclusive] with a machine-readable [reason] instead of
   raising or looping. [Proved]/[Refuted]/[Inconclusive] replaces the
   boolean clean/dirty verdict wherever solver incompleteness or budget
   exhaustion could otherwise let an unfinished check masquerade as a
   proof. *)

(* Why a verification attempt stopped short of a verdict. Each carries
   enough structure for machine consumption (tests, exit codes, JSON
   reports) as well as a human rendering. *)
type reason =
  | Deadline_exceeded of { limit_s : float }
  | Solver_steps_exhausted of { limit : int }
  | Path_cap_exceeded of { limit : int }
  | Fuel_exhausted of { limit : int }
  | Solver_unknowns of { count : int } (* a check leaned on Unknown *)
  | Summary_failed of string (* summarization raised or failed validation *)
  | Injected_fault of string (* a Faultinject hook fired *)
  | Internal_error of string (* an unexpected exception, captured *)
  | Cert_invalid of string (* a verdict certificate failed re-validation *)

(* Short machine-readable tag, stable across renderings. *)
let reason_tag = function
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Solver_steps_exhausted _ -> "solver-steps-exhausted"
  | Path_cap_exceeded _ -> "path-cap-exceeded"
  | Fuel_exhausted _ -> "fuel-exhausted"
  | Solver_unknowns _ -> "solver-unknowns"
  | Summary_failed _ -> "summary-failed"
  | Injected_fault _ -> "injected-fault"
  | Internal_error _ -> "internal-error"
  | Cert_invalid _ -> "cert-invalid"

let reason_to_string = function
  | Deadline_exceeded { limit_s } ->
      Printf.sprintf "wall-clock deadline of %.3fs exceeded" limit_s
  | Solver_steps_exhausted { limit } ->
      Printf.sprintf "solver budget of %d calls exhausted" limit
  | Path_cap_exceeded { limit } ->
      Printf.sprintf "symbolic-execution path cap of %d exceeded" limit
  | Fuel_exhausted { limit } ->
      Printf.sprintf "execution fuel of %d steps exhausted" limit
  | Solver_unknowns { count } ->
      Printf.sprintf "%d solver Unknown(s) left the check incomplete" count
  | Summary_failed m -> "summary failed: " ^ m
  | Injected_fault m -> "injected fault: " ^ m
  | Internal_error m -> "internal error: " ^ m
  | Cert_invalid m -> "certificate invalid: " ^ m

let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)

(* Budget exhaustion is retryable with a larger budget; unknowns may
   disappear under escalation too (different search order); injected
   faults and internal errors are not resource problems. A failed
   certificate means a memo layer or the solver handed out an answer it
   cannot justify — retrying against the same poisoned state would only
   launder it, so it is terminal too. *)
let retryable = function
  | Deadline_exceeded _ | Solver_steps_exhausted _ | Path_cap_exceeded _
  | Fuel_exhausted _ | Solver_unknowns _ | Summary_failed _ ->
      true
  | Injected_fault _ | Internal_error _ | Cert_invalid _ -> false

(* Exact wire roundtrip for journaling: [reason_to_wire] is injective
   and [reason_of_wire] inverts it byte-for-byte (floats travel as hex
   literals), so a reason replayed from a journal renders identically
   to the reason of an uninterrupted run. *)
let reason_to_wire r =
  match r with
  | Deadline_exceeded { limit_s } -> Printf.sprintf "deadline|%h" limit_s
  | Solver_steps_exhausted { limit } -> Printf.sprintf "solver-steps|%d" limit
  | Path_cap_exceeded { limit } -> Printf.sprintf "path-cap|%d" limit
  | Fuel_exhausted { limit } -> Printf.sprintf "fuel|%d" limit
  | Solver_unknowns { count } -> Printf.sprintf "unknowns|%d" count
  | Summary_failed m -> "summary|" ^ m
  | Injected_fault m -> "fault|" ^ m
  | Internal_error m -> "internal|" ^ m
  | Cert_invalid m -> "cert|" ^ m

let reason_of_wire s =
  match String.index_opt s '|' with
  | None -> None
  | Some i -> (
      let tag = String.sub s 0 i in
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      let int_arg f = int_of_string_opt payload |> Option.map f in
      match tag with
      | "deadline" ->
          float_of_string_opt payload
          |> Option.map (fun limit_s -> Deadline_exceeded { limit_s })
      | "solver-steps" ->
          int_arg (fun limit -> Solver_steps_exhausted { limit })
      | "path-cap" -> int_arg (fun limit -> Path_cap_exceeded { limit })
      | "fuel" -> int_arg (fun limit -> Fuel_exhausted { limit })
      | "unknowns" -> int_arg (fun count -> Solver_unknowns { count })
      | "summary" -> Some (Summary_failed payload)
      | "fault" -> Some (Injected_fault payload)
      | "internal" -> Some (Internal_error payload)
      | "cert" -> Some (Cert_invalid payload)
      | _ -> None)

(* The three-valued verdict: a check either discharges its obligation,
   refutes it with a counterexample, or stops with a reason. *)
type 'a outcome = Proved | Refuted of 'a | Inconclusive of reason

exception Exhausted of reason

(* Limits are optional (None = unlimited); consumption counters are
   mutable and shared by everyone holding the same [t], so one budget
   threaded through a whole pipeline run bounds the run globally. *)
type t = {
  deadline : float option; (* absolute, seconds since the epoch *)
  deadline_s : float option; (* the original relative allowance *)
  max_solver_steps : int option;
  max_paths : int option;
  max_fuel : int option;
  mutable solver_steps : int;
  mutable paths : int;
  mutable fuel : int;
  mutable retries : int; (* escalations performed under this lineage *)
}

(* Injected clock skew lets tests simulate a deadline overrun without
   sleeping. *)
let now () = Unix.gettimeofday () +. Faultinject.clock_skew ()

let create ?deadline_s ?solver_steps ?max_paths ?fuel () : t =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
    deadline_s;
    max_solver_steps = solver_steps;
    max_paths;
    max_fuel = fuel;
    solver_steps = 0;
    paths = 0;
    fuel = 0;
    retries = 0;
  }

let unlimited () = create ()

let is_unlimited (b : t) =
  b.deadline = None && b.max_solver_steps = None && b.max_paths = None
  && b.max_fuel = None

(* Observability: consumption is mirrored into the metrics registry
   (per-domain totals across every budget ticked on that domain — the
   per-object counters below keep enforcing the limits), and each
   exhaustion leaves a trace event naming its reason, so an
   Inconclusive verdict's trace contains its root cause. *)
let c_solver_ticks = Trace.Metrics.counter "budget.solver_steps"
let c_path_ticks = Trace.Metrics.counter "budget.paths"
let c_fuel_ticks = Trace.Metrics.counter "budget.fuel"
let c_exhausted = Trace.Metrics.counter "budget.exhausted"

let exhaust (r : reason) : 'a =
  Trace.Metrics.incr c_exhausted;
  Trace.event "budget.exhausted" ~attrs:[ ("reason", reason_tag r) ];
  raise (Exhausted r)

let check_deadline (b : t) =
  match b.deadline with
  | Some d when now () > d ->
      exhaust
        (Deadline_exceeded { limit_s = Option.value ~default:0.0 b.deadline_s })
  | _ -> ()

let tick_solver (b : t) =
  b.solver_steps <- b.solver_steps + 1;
  Trace.Metrics.incr c_solver_ticks;
  (match b.max_solver_steps with
  | Some limit when b.solver_steps > limit ->
      exhaust (Solver_steps_exhausted { limit })
  | _ -> ());
  (* Solver calls dominate verification time, so they are the natural
     cadence for the (syscall-priced) deadline check. *)
  check_deadline b

let tick_path (b : t) =
  b.paths <- b.paths + 1;
  Trace.Metrics.incr c_path_ticks;
  match b.max_paths with
  | Some limit when b.paths > limit ->
      exhaust (Path_cap_exceeded { limit })
  | _ -> ()

(* Fuel ticks fire once per instruction; amortize the deadline syscall. *)
let deadline_stride = 4096

let tick_fuel (b : t) =
  b.fuel <- b.fuel + 1;
  Trace.Metrics.incr c_fuel_ticks;
  (match b.max_fuel with
  | Some limit when b.fuel > limit -> exhaust (Fuel_exhausted { limit })
  | _ -> ());
  if b.fuel land (deadline_stride - 1) = 0 then check_deadline b

(* An independent copy: same limits and the same absolute deadline, but
   counters that advance separately from the parent's. Parallel pipeline
   workers each charge a clone, so one worker's consumption cannot
   exhaust a sibling's allowance mid-flight (per-task isolation), while
   the shared absolute deadline still bounds the whole fan-out. *)
let clone (b : t) : t =
  {
    deadline = b.deadline;
    deadline_s = b.deadline_s;
    max_solver_steps = b.max_solver_steps;
    max_paths = b.max_paths;
    max_fuel = b.max_fuel;
    solver_steps = b.solver_steps;
    paths = b.paths;
    fuel = b.fuel;
    retries = b.retries;
  }

(* A geometrically larger budget with fresh counters: limits scale by
   [factor], the deadline restarts from now with a scaled allowance.
   This is the escalation step of retry-with-escalation — CEGAR-style
   "Unknown + escalate" instead of "crash or lie". *)
let escalate ?(factor = 2) (b : t) : t =
  let scale_i = Option.map (fun n -> n * factor) in
  let deadline_s = Option.map (fun s -> s *. float_of_int factor) b.deadline_s in
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
    deadline_s;
    max_solver_steps = scale_i b.max_solver_steps;
    max_paths = scale_i b.max_paths;
    max_fuel = scale_i b.max_fuel;
    solver_steps = 0;
    paths = 0;
    fuel = 0;
    retries = b.retries + 1;
  }

(* Consumption snapshot for reporting (verdict stats). *)
type consumption = {
  solver_steps_used : int;
  paths_used : int;
  fuel_used : int;
  retries_used : int;
}

let consumption (b : t) : consumption =
  {
    solver_steps_used = b.solver_steps;
    paths_used = b.paths;
    fuel_used = b.fuel;
    retries_used = b.retries;
  }

(* Map an escaped exception to a reason. Layer-specific exceptions
   (e.g. Minir.Interp.Out_of_fuel) are classified by their catchers,
   which see the richer context; this is the generic fallback. *)
let reason_of_exn = function
  | Exhausted r -> r
  | Faultinject.Injected m -> Injected_fault m
  | Stack_overflow -> Internal_error "stack overflow"
  | Out_of_memory -> Internal_error "out of memory"
  | e -> Internal_error (Printexc.to_string e)

(* Run [f] under [b], converting exhaustion and escaped exceptions into
   an [Error reason]. Never raises for the known failure modes. *)
let protect (b : t) (f : unit -> 'a) : ('a, reason) result =
  match
    check_deadline b;
    f ()
  with
  | v -> Ok v
  | exception (Exhausted _ as e) -> Error (reason_of_exn e)
  | exception (Faultinject.Injected _ as e) -> Error (reason_of_exn e)
  | exception Stack_overflow -> Error (Internal_error "stack overflow")
