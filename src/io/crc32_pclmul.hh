/**
 * @file
 * The x86-64 kernel behind io::crc32 (io/shard.hh). Private to the
 * io layer: call io::crc32, which picks the kernel.
 */

#ifndef PSTAT_IO_CRC32_PCLMUL_HH
#define PSTAT_IO_CRC32_PCLMUL_HH

#include <cstddef>
#include <cstdint>

/**
 * @namespace pstat::io::detail
 * Per-ISA kernels behind the io entry points; call those instead.
 */
namespace pstat::io::detail
{

/**
 * The PCLMULQDQ folding kernel (crc32_pclmul.cc, built with -mpclmul
 * -msse4.1). Advances the raw CRC register `state` (the running CRC
 * with all bits inverted) over `len` bytes and returns the new raw
 * register. Requires `len` >= 64 and a multiple of 16, and a CPU
 * that reports pclmul.
 */
uint32_t crc32FoldPclmul(uint32_t state, const unsigned char *data,
                         size_t len);

} // namespace pstat::io::detail

#endif // PSTAT_IO_CRC32_PCLMUL_HH
