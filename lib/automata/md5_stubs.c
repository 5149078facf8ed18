/* Incremental MD5 over the OCaml runtime's own implementation, so a
   digest can be fed in pieces instead of from one byte image.  The
   context is an OCaml byte string holding a [struct MD5Context]; it and
   the buffers hold no OCaml pointers, and [update] neither allocates
   nor raises, so it is declared [@@noalloc]. */

#define CAML_INTERNALS
#include <caml/alloc.h>
#include <caml/md5.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

value spectr_md5_init(value unit)
{
  value ctx = caml_alloc_string(sizeof(struct MD5Context));
  caml_MD5Init((struct MD5Context *) Bytes_val(ctx));
  return ctx;
}

value spectr_md5_update(value ctx, value buf, value len)
{
  caml_MD5Update((struct MD5Context *) Bytes_val(ctx), Bytes_val(buf),
                 Long_val(len));
  return Val_unit;
}

value spectr_md5_final(value ctx)
{
  CAMLparam1(ctx);
  value d = caml_alloc_string(16);
  caml_MD5Final(Bytes_val(d), (struct MD5Context *) Bytes_val(ctx));
  CAMLreturn(d);
}
