module Prof = Sympiler_prof.Prof
module Metrics = Sympiler_metrics.Metrics

let max_domains = 64

(* Serving metrics for the pool: dispatch latency distribution, tasks
   executed, and the width and imbalance of the most recent dispatch.
   Registered once at module init; recording is a no-op until
   [Metrics.enable]. *)
let m_dispatch =
  Metrics.histogram "sympiler_pool_dispatch_seconds"
    ~help:"Wall time of one Pool.run dispatch (publish to barrier)"

let m_runs =
  Metrics.counter "sympiler_pool_runs" ~help:"Parallel dispatches through the pool"

let m_tasks =
  Metrics.counter "sympiler_pool_tasks" ~help:"Worker tasks executed across dispatches"

let m_max_workers =
  Metrics.gauge "sympiler_pool_max_workers"
    ~help:"Worker count of the last dispatch"

let m_imbalance =
  Metrics.gauge "sympiler_pool_imbalance_pct"
    ~help:"Imbalance of the last measured dispatch (max/mean worker time, %)"

(* Bounded spin before parking: long enough to catch the common "next level
   dispatched immediately" case without burning a timeslice when the
   producer is genuinely idle. *)
let spin_budget = 2048

let parse_ndomains = function
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k >= 1 -> Some (min k max_domains)
      | _ -> None)

(* The single sizing decision of the library: every [?ndomains] default
   resolves here (see pool.mli). Cached after the first read. *)
let default_size_cache = ref 0

let default_size () =
  if !default_size_cache = 0 then
    default_size_cache :=
      (match parse_ndomains (Sys.getenv_opt "SYMPILER_NDOMAINS") with
      | Some k -> k
      | None -> min max_domains (Domain.recommended_domain_count ()));
  !default_size_cache

(* ------------------------------ Pool state ----------------------------- *)

let noop_task (_ : int) = ()

(* The epoch word carries the dispatch's worker count in its low bits, so
   one atomic load tells a worker both which dispatch it sees and whether
   it takes part. A separate plain count could be read by a worker that
   was idle in one dispatch and woke late, after the caller had already
   written the next dispatch's count: it then ran the next task early and
   again once released, and its extra barrier decrement let the caller
   pass the barrier before every partition was done. *)
let active_bits = 7 (* max_domains = 64 < 2^7 *)
let epoch_nactive e = e land ((1 lsl active_bits) - 1)
let next_epoch e nactive = (((e lsr active_bits) + 1) lsl active_bits) lor nactive

type state = {
  mutable task : int -> unit; (* published by the epoch bump *)
  mutable failed : exn option; (* first worker exception of the epoch *)
  mutable stop : bool; (* at_exit shutdown flag *)
  epoch : int Atomic.t; (* bumping it releases [task]; see [next_epoch] *)
  pending : int Atomic.t; (* workers still running the current epoch *)
  m : Mutex.t;
  cv_start : Condition.t; (* workers park here between epochs *)
  cv_done : Condition.t; (* the caller parks here at the barrier *)
  wtimes : int array; (* per-worker task nanoseconds (metrics on only) *)
  mutable workers : unit Domain.t list; (* spawned so far, join at exit *)
  mutable nworkers_spawned : int;
}

let st =
  {
    task = noop_task;
    failed = None;
    stop = false;
    epoch = Atomic.make 0;
    pending = Atomic.make 0;
    m = Mutex.create ();
    cv_start = Condition.create ();
    cv_done = Condition.create ();
    wtimes = Array.make max_domains 0;
    workers = [];
    nworkers_spawned = 0;
  }

let spawned () = st.nworkers_spawned

(* Worker [wid] (1-based; the caller is worker 0). Spin on the epoch, then
   park; on wake run the task if this epoch includes us, decrement the
   barrier, and go back to waiting. Exceptions are captured — the pool must
   survive any task. *)
let worker_loop wid start_epoch =
  let my_epoch = ref start_epoch in
  let running = ref true in
  while !running do
    let budget = ref spin_budget in
    while Atomic.get st.epoch = !my_epoch && !budget > 0 do
      decr budget;
      Domain.cpu_relax ()
    done;
    if Atomic.get st.epoch = !my_epoch then begin
      Mutex.lock st.m;
      while Atomic.get st.epoch = !my_epoch do
        Condition.wait st.cv_start st.m
      done;
      Mutex.unlock st.m
    end;
    my_epoch := Atomic.get st.epoch;
    if st.stop then running := false
    else if wid < epoch_nactive !my_epoch then begin
      (if Metrics.enabled () then begin
         let t0 = Prof.now_ns () in
         (try st.task wid with e -> if st.failed = None then st.failed <- Some e);
         st.wtimes.(wid) <- Prof.now_ns () - t0
       end
       else
         try st.task wid with e -> if st.failed = None then st.failed <- Some e);
      (* Last worker through the barrier wakes a possibly-parked caller. *)
      if Atomic.fetch_and_add st.pending (-1) = 1 then begin
        Mutex.lock st.m;
        Condition.signal st.cv_done;
        Mutex.unlock st.m
      end
    end
  done

(* Lazy spawning: grow the pool to serve [nworkers]-wide dispatches. The
   shutdown hook is installed with the first worker so a purely sequential
   process never touches [at_exit]. *)
let shutdown () =
  if st.nworkers_spawned > 0 then begin
    st.stop <- true;
    Mutex.lock st.m;
    Atomic.set st.epoch (next_epoch (Atomic.get st.epoch) 0);
    Condition.broadcast st.cv_start;
    Mutex.unlock st.m;
    List.iter Domain.join st.workers;
    st.workers <- [];
    st.nworkers_spawned <- 0
  end

let ensure nworkers =
  if st.nworkers_spawned < nworkers - 1 then begin
    if st.nworkers_spawned = 0 then at_exit shutdown;
    let e = Atomic.get st.epoch in
    for wid = st.nworkers_spawned + 1 to nworkers - 1 do
      st.workers <- Domain.spawn (fun () -> worker_loop wid e) :: st.workers
    done;
    st.nworkers_spawned <- nworkers - 1
  end

(* The dispatch just finished, once every worker is parked: its latency,
   width, and imbalance — max/mean worker time as an integer percentage
   (100 = perfectly balanced). *)
let record_dispatch nworkers t_dispatch =
  Metrics.observe_ns m_dispatch (Prof.now_ns () - t_dispatch);
  Metrics.inc m_runs 1;
  Metrics.inc m_tasks nworkers;
  Metrics.set m_max_workers (float_of_int nworkers);
  let sum = ref 0 and mx = ref 0 in
  for w = 0 to nworkers - 1 do
    sum := !sum + st.wtimes.(w);
    if st.wtimes.(w) > !mx then mx := st.wtimes.(w)
  done;
  if !sum > 0 then
    Metrics.set m_imbalance
      (float_of_int (((100 * !mx * nworkers) + (!sum / 2)) / !sum))

let run ~nworkers task =
  let nw = if nworkers > max_domains then max_domains else nworkers in
  if nw <= 1 then task 0
  else begin
    ensure nw;
    Sympiler_trace.Trace.begin_span "pool.run";
    let t_dispatch = if Metrics.enabled () then Prof.now_ns () else 0 in
    st.task <- task;
    st.failed <- None;
    Atomic.set st.pending (nw - 1);
    (* Publish under the mutex so a parked worker cannot miss the wakeup
       between its epoch re-check and its [Condition.wait]. *)
    Mutex.lock st.m;
    Atomic.set st.epoch (next_epoch (Atomic.get st.epoch) nw);
    Condition.broadcast st.cv_start;
    Mutex.unlock st.m;
    let caller_failed =
      if Metrics.enabled () then begin
        let t0 = Prof.now_ns () in
        let r = try task 0; None with e -> Some e in
        st.wtimes.(0) <- Prof.now_ns () - t0;
        r
      end
      else try task 0; None with e -> Some e
    in
    (* The barrier: bounded spin, then park on [cv_done]. *)
    let budget = ref spin_budget in
    while Atomic.get st.pending > 0 && !budget > 0 do
      decr budget;
      Domain.cpu_relax ()
    done;
    if Atomic.get st.pending > 0 then begin
      Mutex.lock st.m;
      while Atomic.get st.pending > 0 do
        Condition.wait st.cv_done st.m
      done;
      Mutex.unlock st.m
    end;
    st.task <- noop_task (* do not root the plan between dispatches *);
    if Metrics.enabled () then record_dispatch nw t_dispatch;
    Sympiler_trace.Trace.end_span ();
    match caller_failed with
    | Some e -> raise e
    | None -> (
        match st.failed with
        | Some e ->
            st.failed <- None;
            raise e
        | None -> ())
  end
