#pragma once

// sssp lives in the shared min-plus module; this header keeps the old
// include path working.
#include "algo/minplus.hpp"
