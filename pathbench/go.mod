module simrankpp/pathbench

go 1.24.0

require simrankpp v0.0.0

replace simrankpp => ../
