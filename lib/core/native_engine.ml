(* Facade-side glue for the native engine: the uniform entry appended to a
   kernel's text, the int32 copies of a handle's pattern arrays, and the
   [exec] record a plan embeds. *)

module Native = Sympiler_native.Native
module Pretty_c = Sympiler_ir.Pretty_c

type exec = {
  nk : Native.kernel;
  n : int;
  mutable x : float array;
  f : float array array;
  ix : Native.ints array;
}

let int32_min = Int32.to_int Int32.min_int
let int32_max = Int32.to_int Int32.max_int

let ints (a : int array) : Native.ints =
  let b =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (Array.length a)
  in
  Array.iteri
    (fun i v ->
      if v < int32_min || v > int32_max then
        invalid_arg "Native_engine: pattern index does not fit in a C int";
      Bigarray.Array1.unsafe_set b i (Int32.of_int v))
    a;
  b

(* The entry [Native.run] calls: unpack the argument arrays into the
   kernel's parameters. A factor kernel's text plus this entry depend on
   the shape alone, so every pattern of a shape shares one object. *)
let entry_name = "sympiler_kernel"

let wrapper ~kname ~nix ~nf =
  let args prefix k = List.init k (Printf.sprintf "%s[%d]" prefix) in
  Printf.sprintf
    "\n\
     int %s(int n, double *x, double *const *f, int *const *ix) {\n\
    \  return %s(%s);\n\
     }\n"
    entry_name kname
    (String.concat ", " (("n" :: args "ix" nix) @ ("x" :: args "f" nf)))

(* [Native.run] hands float arrays to C as they are, which needs the
   runtime's flat float arrays: an OCaml configured without them boxes
   every element, and such a plan runs the OCaml executor. *)
let flat_float_arrays = Obj.tag (Obj.repr [| 0.0 |]) = Obj.double_array_tag

let load (s : Pretty_c.shaped) ~(inputs : int) ~(outputs : float array array)
    : exec option =
  if not flat_float_arrays then None
  else
    let ix =
      Array.of_list
        (List.map (fun (_, a) -> ints a) s.data
        @ List.map (fun len -> ints (Array.make len 0)) s.iwork)
    in
    let f =
      Array.append outputs
        (Array.of_list (List.map (fun len -> Array.make len 0.0) s.fwork))
    in
    let src =
      s.text
      ^ wrapper ~kname:s.kname ~nix:(Array.length ix) ~nf:(Array.length f)
    in
    match Native.load ~entry:entry_name src with
    | None -> None
    | Some nk -> Some { nk; n = s.n; x = Array.make inputs 0.0; f; ix }

let call e = Native.run e.nk e.n e.x e.f e.ix
