(* Facade-side glue for the native engine: uniform-ABI wrapper emission
   and the buffer-owning [exec] record the family plans embed. *)

module Native = Sympiler_native.Native

type buf = Native.buf

type exec = {
  nk : Native.kernel;
  b0 : buf;
  b1 : buf;
  b2 : buf;
  b3 : buf;
}

(* The generated kernels take [const double *restrict] / [double *restrict]
   parameters; the wrapper's plain [double *] arguments convert implicitly,
   so one fixed trampoline signature covers every family. *)
let wrapper ~kname ~nargs ~int_return =
  let args =
    String.concat ", " (List.init nargs (fun i -> Printf.sprintf "b%d" i))
  in
  let unused =
    List.filteri (fun i _ -> i >= nargs) [ "b0"; "b1"; "b2"; "b3" ]
    |> List.map (fun b -> Printf.sprintf "  (void)%s;\n" b)
    |> String.concat ""
  in
  if int_return then
    Printf.sprintf
      "\n\
       int sympiler_entry(double *b0, double *b1, double *b2, double *b3) {\n\
       %s  return %s(%s);\n\
       }\n"
      unused kname args
  else
    Printf.sprintf
      "\n\
       int sympiler_entry(double *b0, double *b1, double *b2, double *b3) {\n\
       %s  %s(%s);\n\
       return -1;\n\
       }\n"
      unused kname args

let make_buf n =
  let b =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 n)
  in
  Bigarray.Array1.fill b 0.0;
  b

let load ~pattern_key ~family ~kname ~nargs ~int_return ~sizes source =
  let src = source ^ wrapper ~kname ~nargs ~int_return in
  (* Family tag folded by value into the key: two families compiled for
     the same pattern must not share a cache slot even if their sources
     ever collided. FNV over the tag keeps the key run-stable. *)
  let key =
    String.fold_left
      (fun h c -> (h * 31) + Char.code c)
      (pattern_key land max_int)
      family
    land max_int
  in
  match Native.load ~key ~entry:"sympiler_entry" src with
  | None -> None
  | Some nk ->
      let slot i =
        if i < Array.length sizes && sizes.(i) > 0 then make_buf sizes.(i)
        else Native.dummy
      in
      Some { nk; b0 = slot 0; b1 = slot 1; b2 = slot 2; b3 = slot 3 }

let call e = Native.call e.nk e.b0 e.b1 e.b2 e.b3

(* One length check up front, then unsafe element ops: the loops stay
   allocation-free and can never run past either side's storage. *)
let blit_in (src : float array) (dst : buf) =
  if Array.length src > Bigarray.Array1.dim dst then
    invalid_arg "Native_engine.blit_in: source longer than buffer";
  for i = 0 to Array.length src - 1 do
    Bigarray.Array1.unsafe_set dst i (Array.unsafe_get src i)
  done

let blit_out (src : buf) (dst : float array) =
  if Array.length dst > Bigarray.Array1.dim src then
    invalid_arg "Native_engine.blit_out: destination longer than buffer";
  for i = 0 to Array.length dst - 1 do
    Array.unsafe_set dst i (Bigarray.Array1.unsafe_get src i)
  done

let fill0 (b : buf) = Bigarray.Array1.fill b 0.0

(* Bounds-checked on purpose: [scatter] writes caller-controlled sparse
   indices, and an out-of-range index must raise like the OCaml executor
   would, not scribble past the kernel's buffer. The loop lives here so
   the floats never cross a module boundary (which would box them). *)
let scatter (b : buf) (idx : int array) (v : float array) =
  for t = 0 to Array.length idx - 1 do
    Bigarray.Array1.set b idx.(t) (Array.unsafe_get v t)
  done

let fill0_at (b : buf) (idx : int array) =
  for t = 0 to Array.length idx - 1 do
    Bigarray.Array1.set b idx.(t) 0.0
  done

let gather (src : buf) (idx : int array) (dst : float array) =
  for t = 0 to Array.length idx - 1 do
    let i = idx.(t) in
    dst.(i) <- Bigarray.Array1.get src i
  done
