#include "spark/dist.h"

namespace deca::spark {

const char* EnumName(DistMode m) {
  switch (m) {
    case DistMode::kInProcess:
      return "local";
    case DistMode::kProcess:
      return "process";
  }
  return "?";
}

}  // namespace deca::spark
