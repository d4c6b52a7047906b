/* Hand-written dlopen/dlsym bridge for the native kernel engine.
 *
 * The switch has no ctypes, so this stub is the whole FFI surface: four
 * externals. Loading returns raw handles/function pointers as nativeint;
 * two call trampolines invoke a resolved entry point.
 *
 * sympiler_native_call passes the data pointers of four float64 Bigarray
 * buffers to an entry of the form
 *
 *   int sympiler_entry(double *b0, double *b1, double *b2, double *b3);
 *
 * (only the repository benchmark's machine-ceiling probes use it).
 *
 * sympiler_native_run serves every plan's kernel: the factor kernels,
 * whose text is one per kernel shape and whose pattern arrives as
 * arguments, and the triangular solve, whose text holds its pattern:
 *
 *   int sympiler_kernel(int n, double *x, double *const *f, int *const *ix);
 *
 * [x] is an OCaml float array (flat, so its payload is contiguous
 * doubles), [f] an OCaml array of float arrays (the output arrays, then
 * the float workspaces), [ix] an OCaml array of int32 Bigarrays (the
 * pattern arrays, then the int workspaces). The stub collects the data
 * pointers on its own stack and passes them on: nothing is copied.
 *
 * Both trampolines are declared [@@noalloc]: they allocate nothing and
 * never call back into the runtime, so no GC can run, and no heap block
 * can move, while the kernel holds pointers into the OCaml heap. The
 * kernels return -1 on success or the failing pivot index, which the
 * OCaml side re-raises as the family's own exception.
 */

#include <dlfcn.h>
#include <stdint.h>

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

typedef int (*sympiler_entry_fn)(double *, double *, double *, double *);
typedef int (*sympiler_kernel_fn)(int, double *, double *const *,
                                  int *const *);

/* Upper bounds on the argument arrays of sympiler_native_run; Native.run
   checks them before the call. */
#define SYMPILER_MAX_F 8
#define SYMPILER_MAX_IX 16

CAMLprim value sympiler_native_dlopen(value vpath)
{
  CAMLparam1(vpath);
  void *handle = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (handle == NULL) {
    const char *err = dlerror();
    caml_failwith(err == NULL ? "dlopen failed" : err);
  }
  CAMLreturn(caml_copy_nativeint((intnat)handle));
}

CAMLprim value sympiler_native_dlsym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *handle = (void *)Nativeint_val(vhandle);
  /* Clear any stale error so a NULL-valued symbol is distinguishable. */
  (void)dlerror();
  void *fn = dlsym(handle, String_val(vname));
  if (fn == NULL) {
    const char *err = dlerror();
    caml_failwith(err == NULL ? "dlsym returned NULL" : err);
  }
  CAMLreturn(caml_copy_nativeint((intnat)fn));
}

CAMLprim value sympiler_native_call(value vfn, value b0, value b1, value b2,
                                    value b3)
{
  sympiler_entry_fn fn = (sympiler_entry_fn)Nativeint_val(vfn);
  int rc = fn((double *)Caml_ba_data_val(b0), (double *)Caml_ba_data_val(b1),
              (double *)Caml_ba_data_val(b2), (double *)Caml_ba_data_val(b3));
  return Val_int(rc);
}

CAMLprim value sympiler_native_run(value vfn, value vn, value vx, value vf,
                                   value vix)
{
  sympiler_kernel_fn fn = (sympiler_kernel_fn)Nativeint_val(vfn);
  double *f[SYMPILER_MAX_F];
  int *ix[SYMPILER_MAX_IX];
  mlsize_t nf = Wosize_val(vf), nix = Wosize_val(vix);
  for (mlsize_t k = 0; k < nf; k++)
    f[k] = (double *)Field(vf, k);
  for (mlsize_t k = 0; k < nix; k++)
    ix[k] = (int *)Caml_ba_data_val(Field(vix, k));
  return Val_int(fn(Int_val(vn), (double *)vx, f, ix));
}
