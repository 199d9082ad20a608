(* Host-speed reference.  On a shared host the same round of work runs up
   to a third slower for seconds at a time, and whole runs a quarter
   slower than others, while the process keeps its cores (user time
   tracks wall time; steal stays small): the machine itself is slower,
   not the program descheduled.  No statistic inside one run removes a
   slow run, so every timed piece is paired with this kernel, timed just
   before and just after it, and reported as
   [piece time * nominal / kernel time]: seconds on a host where the
   kernel takes [nominal].  The kernel uses the standard library alone,
   so no change to the program under test moves it. *)

let nominal = 0.0005

let arr = Array.make 65536 0
let table : (int, int) Hashtbl.t = Hashtbl.create 4096

(* fixed work: pseudo-random array updates over 512 KB, hash-table
   stores and short-lived allocation, the simulator's own mix *)
let kernel () =
  let x = ref 12345 and acc = ref [] in
  for i = 1 to 6_000 do
    x := ((!x * 25214903917) + 11) land 0xffff_ffff;
    let j = (!x lsr 8) land 65535 in
    arr.(j) <- arr.(j) + i;
    Hashtbl.replace table (j land 4095) i;
    if i land 3 = 0 then acc := (j, i) :: !acc
  done;
  ignore (Sys.opaque_identity !acc)

(* seconds one kernel run takes now *)
let sample () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0

(* host seconds [d], rescaled to the nominal speed by the kernel's
   times [r0] just before and [r1] just after them *)
let rescale ~r0 ~r1 d = d *. nominal /. ((r0 +. r1) /. 2.0)

(* [f ()] and its rescaled seconds *)
let timed f =
  let r0 = sample () in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let d = Unix.gettimeofday () -. t0 in
    rescale ~r0 ~r1:(sample ()) d
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e
