(* Shared vocabulary of the four workloads. *)

(* A fault the self-test plants to prove a workload's checks fire; the
   benchmark itself always runs [Clean]. *)
type plant =
  | Clean
  | Drop_host_element  (** host-mix: a queue wrapper loses one element *)
  | Perturb_cycles  (** paper-sweep: one cell's cycles differ in round 2+ *)
  | Force_inconsistent  (** explore: a strict queue's verdict is forced *)
  | Fake_lock_cycle  (** audit: a fabricated lock-order cycle *)

(* What one round did.  An operation is one checked cell; [expected]
   counts the failures of cells that probe a fault known to be in the
   program (they keep [correct] true). *)
type round = {
  attempted : int;
  failed : int;
  expected : int;
  pieces : (string * float) list;
      (** seconds of each timed piece of the round, by label, rescaled
          to the reference speed (Calib) *)
  cycles : (string * float) list;  (** cycles.<Queue>, per paper queue *)
  errors : string list;
}

type workload = {
  name : string;
  setup : seed:int -> plant:plant -> unit -> unit -> round;
      (** derive inputs from the seed, build, warm up; returns the round *)
  per_layer : rounds:int -> (string * float) list;
      (** per-layer metrics accumulated over [rounds] traced rounds *)
}

let paper_queues = Pqcore.Registry.names_paper

(* Cell bookkeeping inside a round. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable expected : int;
  mutable errors : string list;
  mutable pieces : (string * float) list;
}

let tally () =
  { attempted = 0; failed = 0; expected = 0; errors = []; pieces = [] }

let add_piece t label secs = t.pieces <- (label, secs) :: t.pieces

(* time [f] as one piece of the round's timed work, in reference-speed
   seconds (see Calib) *)
let piece t label f =
  let v, secs = Calib.timed f in
  add_piece t label secs;
  v

let check ?(known_fault = false) t label ok detail =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if known_fault then t.expected <- t.expected + 1;
    t.errors <- (label ^ ": " ^ detail ()) :: t.errors
  end

let finish t ~cycles : round =
  {
    attempted = t.attempted;
    failed = t.failed;
    expected = t.expected;
    pieces = List.rev t.pieces;
    cycles;
    errors = List.rev t.errors;
  }

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* cycles.<Queue> for every paper queue from (queue, cycles) samples,
   combined by [by] (default the geometric mean) *)
let cycles_by_queue ?(by = geomean) samples =
  List.map
    (fun q ->
      (q, by (List.filter_map (fun (q', c) -> if q' = q then Some c else None) samples)))
    paper_queues

(* [n] seeds derived from the run's seed, disjoint between runs *)
let sub_seeds ~seed n = List.init n (fun j -> (seed * 1_000_003) + j)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fi = float_of_int

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Named sums for per-layer metrics, filled only by traced rounds. *)
module Acc = struct
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64
  let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
end

(* Simulated events and minor words of every engine run in the process,
   as a delta around [f]. *)
let engine_delta f =
  let e0, w0 = Pqsim.Sim.harness_totals () in
  let v = f () in
  let e1, w1 = Pqsim.Sim.harness_totals () in
  (v, e1 - e0, w1 - w0)
