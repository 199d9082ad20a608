(* In-memory spans around the benchmark's calls into each layer.

   Off by default: [time] then costs one branch.  When on, every call
   appends (name, parent, start, stop) to a growable buffer; nothing is
   written until [write] at the end of the run, so tracing never adds
   I/O to a timed round. *)

let on = ref false

type span = { name : string; id : int; parent : int; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let now = Unix.gettimeofday

let time name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let t0 = now () in
    let finish () =
      spans := { name; id; parent; t0; t1 = now () } :: !spans;
      current := parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Total seconds spent inside spans called [name] (nested same-name
   spans count once, at the outermost). *)
let total name =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let rec inside_same s =
    s.parent >= 0
    &&
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> p.name = name || inside_same p
    | None -> false
  in
  List.fold_left
    (fun acc s ->
      if s.name = name && not (inside_same s) then acc +. (s.t1 -. s.t0)
      else acc)
    0.0 !spans

let write path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"start_s\":%.9f,\"dur_s\":%.9f}\n"
        s.name s.id s.parent s.t0 (s.t1 -. s.t0))
    (List.rev !spans);
  close_out oc
