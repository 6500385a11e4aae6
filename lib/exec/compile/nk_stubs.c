/* The dlopen shim behind Exec_compile's native loop nests: load a shared
   object built from generated C, resolve its kernels, and call one. */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <dlfcn.h>

/* A kernel reads the frame's float slots, the float storage bound to its
   accesses and the (tagged) int slots holding offsets, strides and trip
   counts. */
typedef void (*nk_kernel)(double *flts, double **bufs, const intnat *ints);

value nk_dlopen(value path)
{
  CAMLparam1(path);
  void *h = dlopen(String_val(path), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) caml_failwith(dlerror());
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

value nk_dlsym(value handle, value name)
{
  CAMLparam2(handle, name);
  void *f = dlsym((void *)Nativeint_val(handle), String_val(name));
  if (f == NULL) caml_failwith(dlerror());
  CAMLreturn(caml_copy_nativeint((intnat)f));
}

/* A float array is its flat doubles, an array of float arrays the
   pointers to them, an int array its tagged words.  The call allocates
   nothing, so no collection can move them while the kernel runs. */
value nk_call(intnat fn, value flts, value bufs, value ints)
{
  ((nk_kernel)fn)((double *)flts, (double **)bufs, (const intnat *)ints);
  return Val_unit;
}

value nk_call_byte(value fn, value flts, value bufs, value ints)
{
  return nk_call(Nativeint_val(fn), flts, bufs, ints);
}
